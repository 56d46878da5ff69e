package raplet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"rapidware/internal/core"
	"rapidware/internal/fec"
	"rapidware/internal/filter"
)

// recorder collects the events a responder receives.
type recorder struct {
	mu     sync.Mutex
	events []Event
	err    error
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Handle(e Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	return r.err
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

func (r *recorder) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.count() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("recorder saw %d events, want %d", r.count(), n)
}

func TestBusDispatchesToSubscribers(t *testing.T) {
	bus := NewBus(16)
	rec := &recorder{}
	bus.Subscribe(EventLossRate, rec)
	if err := bus.Start(); err != nil {
		t.Fatal(err)
	}
	defer bus.Stop()
	bus.Publish(Event{Type: EventLossRate, Value: 0.1})
	bus.Publish(Event{Type: EventBandwidth, Value: 1e6}) // no subscriber
	rec.waitFor(t, 1)
	if rec.count() != 1 {
		t.Fatalf("events = %d, want 1", rec.count())
	}
	if got := bus.SubscriberTypes(); len(got) != 1 || got[0] != EventLossRate {
		t.Fatalf("SubscriberTypes = %v", got)
	}
}

func TestBusSetsTimestamp(t *testing.T) {
	bus := NewBus(4)
	rec := &recorder{}
	bus.Subscribe(EventPreference, rec)
	bus.Start()
	defer bus.Stop()
	bus.Publish(Event{Type: EventPreference})
	rec.waitFor(t, 1)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.events[0].Time.IsZero() {
		t.Fatal("event delivered without a timestamp")
	}
}

func TestBusDoubleStartAndStop(t *testing.T) {
	bus := NewBus(4)
	if err := bus.Start(); err != nil {
		t.Fatal(err)
	}
	if err := bus.Start(); err == nil {
		t.Fatal("expected error on second Start")
	}
	bus.Stop()
	bus.Stop()                              // idempotent
	bus.Publish(Event{Type: EventLossRate}) // must not panic after stop
}

func TestBusCollectsResponderErrors(t *testing.T) {
	bus := NewBus(4)
	rec := &recorder{err: errors.New("responder failure")}
	bus.Subscribe(EventLossRate, rec)
	bus.Start()
	bus.Publish(Event{Type: EventLossRate, Value: 0.5})
	rec.waitFor(t, 1)
	bus.Stop()
	if len(bus.Errors()) != 1 {
		t.Fatalf("Errors = %v", bus.Errors())
	}
}

func TestBusDropsWhenQueueFull(t *testing.T) {
	bus := NewBus(1)
	// Not started: the queue fills and further publishes are dropped.
	bus.Publish(Event{Type: EventLossRate})
	bus.Publish(Event{Type: EventLossRate})
	bus.Publish(Event{Type: EventLossRate})
	if bus.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", bus.Dropped())
	}
}

func TestResponderFunc(t *testing.T) {
	called := false
	rf := ResponderFunc{RName: "fn", Fn: func(Event) error { called = true; return nil }}
	if rf.Name() != "fn" {
		t.Fatalf("Name = %q", rf.Name())
	}
	if err := rf.Handle(Event{}); err != nil || !called {
		t.Fatal("Handle did not invoke the function")
	}
}

func TestLossRateObserverThresholdCrossing(t *testing.T) {
	bus := NewBus(32)
	rec := &recorder{}
	bus.Subscribe(EventLossRate, rec)
	bus.Start()
	defer bus.Stop()

	obs := NewLossRateObserver("", bus, 20, 0.10, 0.05)
	if obs.Name() == "" {
		t.Fatal("default name empty")
	}
	if err := obs.Start(); err != nil {
		t.Fatal(err)
	}
	defer obs.Stop()

	// All packets delivered: no events.
	for i := 0; i < 40; i++ {
		obs.ObservePacket(true)
	}
	if obs.Events() != 0 {
		t.Fatalf("events = %d before any loss", obs.Events())
	}
	// Burst of losses drives the windowed rate above 10%: exactly one event.
	for i := 0; i < 10; i++ {
		obs.ObservePacket(false)
	}
	if obs.Events() != 1 {
		t.Fatalf("events = %d after loss burst, want 1", obs.Events())
	}
	if obs.LossRate() < 0.10 {
		t.Fatalf("LossRate = %v, want >= 0.10", obs.LossRate())
	}
	// Recovery drives it back below threshold-hysteresis: one more event.
	for i := 0; i < 40; i++ {
		obs.ObservePacket(true)
	}
	if obs.Events() != 2 {
		t.Fatalf("events = %d after recovery, want 2", obs.Events())
	}
	rec.waitFor(t, 2)
}

func TestLossRateObserverNeedsMinimumSignal(t *testing.T) {
	obs := NewLossRateObserver("min", nil, 100, 0.01, 0.005)
	for i := 0; i < 5; i++ {
		obs.ObservePacket(false)
	}
	if obs.Events() != 0 {
		t.Fatal("observer reported with fewer than 8 observations")
	}
}

func newAdaptiveProxy(t *testing.T) *core.Proxy {
	t.Helper()
	p := core.New("adaptive")
	if err := p.SetEndpoints(filter.NewNull("in"), filter.NewNull("out")); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFECResponderInsertAndRemove(t *testing.T) {
	p := newAdaptiveProxy(t)
	r, err := NewFECResponder("", p, fec.Params{K: 4, N: 6}, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() == "" {
		t.Fatal("default name empty")
	}
	// Irrelevant event types are ignored.
	if err := r.Handle(Event{Type: EventBandwidth, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if r.Active() {
		t.Fatal("responder active without a loss event")
	}
	// Loss above threshold inserts the encoder.
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.10}); err != nil {
		t.Fatal(err)
	}
	if !r.Active() {
		t.Fatal("responder not active after high-loss event")
	}
	if p.Chain().Len() != 3 {
		t.Fatalf("chain length = %d, want 3", p.Chain().Len())
	}
	// A second high-loss event must not insert twice.
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.20}); err != nil {
		t.Fatal(err)
	}
	if p.Chain().Len() != 3 {
		t.Fatal("duplicate insertion")
	}
	// Loss below threshold removes it.
	if err := r.Handle(Event{Type: EventLossRate, Value: 0.01}); err != nil {
		t.Fatal(err)
	}
	if r.Active() || p.Chain().Len() != 2 {
		t.Fatalf("encoder not removed: active=%v len=%d", r.Active(), p.Chain().Len())
	}
	ins, rem := r.Stats()
	if ins != 1 || rem != 1 {
		t.Fatalf("Stats = %d/%d", ins, rem)
	}
}

func TestFECResponderValidation(t *testing.T) {
	if _, err := NewFECResponder("x", nil, fec.Params{K: 4, N: 6}, 1, 0.1); err == nil {
		t.Fatal("expected error for nil proxy")
	}
	p := newAdaptiveProxy(t)
	if _, err := NewFECResponder("x", p, fec.Params{K: 9, N: 3}, 1, 0.1); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

// TestEndToEndAdaptiveFEC wires the whole adaptation loop together: an
// observer feeding a bus, an FEC responder reconfiguring a live proxy, and a
// simulated walk away from the access point that degrades the link.
func TestEndToEndAdaptiveFEC(t *testing.T) {
	p := newAdaptiveProxy(t)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	bus := NewBus(64)
	responder, err := NewFECResponder("adaptive-fec", p, fec.Params{K: 4, N: 6}, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	bus.Subscribe(EventLossRate, responder)
	bus.Start()
	defer bus.Stop()
	observer := NewLossRateObserver("link-monitor", bus, 50, 0.05, 0.02)

	// Near the access point: essentially no loss.
	for i := 0; i < 200; i++ {
		observer.ObservePacket(true)
	}
	// Walk down the hall: loss climbs to ~20%.
	for i := 0; i < 200; i++ {
		observer.ObservePacket(i%5 != 0)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !responder.Active() {
		time.Sleep(time.Millisecond)
	}
	if !responder.Active() {
		t.Fatal("FEC filter was not inserted when the link degraded")
	}
	st := p.Status()
	if len(st.Filters) != 3 {
		t.Fatalf("chain = %+v", st.Filters)
	}

	// Walk back: loss disappears, the filter is removed.
	for i := 0; i < 400; i++ {
		observer.ObservePacket(true)
	}
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && responder.Active() {
		time.Sleep(time.Millisecond)
	}
	if responder.Active() {
		t.Fatal("FEC filter was not removed when the link recovered")
	}
	if errs := bus.Errors(); len(errs) != 0 {
		t.Fatalf("responder errors: %v", errs)
	}
}
