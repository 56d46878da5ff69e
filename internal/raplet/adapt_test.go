package raplet

import (
	"fmt"
	"sync"
	"testing"
)

func TestBusUnsubscribe(t *testing.T) {
	bus := NewBus(16)
	rec := &recorder{}
	bus.Subscribe(EventLossRate, rec)
	bus.Start()
	defer bus.Stop()

	bus.Publish(Event{Type: EventLossRate, Value: 0.1})
	rec.waitFor(t, 1)

	if !bus.Unsubscribe(EventLossRate, "recorder") {
		t.Fatal("Unsubscribe did not find the responder")
	}
	if bus.Unsubscribe(EventLossRate, "recorder") {
		t.Fatal("second Unsubscribe found a removed responder")
	}
	if bus.Unsubscribe(EventBandwidth, "recorder") {
		t.Fatal("Unsubscribe matched the wrong event type")
	}
	bus.Publish(Event{Type: EventLossRate, Value: 0.2})
	bus.Publish(Event{Type: EventLossRate, Value: 0.3})
	// Give dispatch a chance to (incorrectly) deliver: publish a sentinel to a
	// fresh subscriber and wait for it, proving the queue drained.
	sentinel := &recorder{}
	bus.Subscribe(EventPreference, sentinel)
	bus.Publish(Event{Type: EventPreference})
	sentinel.waitFor(t, 1)
	if rec.count() != 1 {
		t.Fatalf("unsubscribed responder saw %d events, want 1", rec.count())
	}
}

// TestBusConcurrentPublishSubscribeUnsubscribe exercises the bus under
// simultaneous publishers, subscribers and unsubscribers; it exists to be run
// with -race.
func TestBusConcurrentPublishSubscribeUnsubscribe(t *testing.T) {
	bus := NewBus(1024)
	if err := bus.Start(); err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const iterations = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(3)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				bus.Publish(Event{Type: EventLossRate, Source: fmt.Sprintf("pub-%d", g), Value: float64(i) / iterations})
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				name := fmt.Sprintf("resp-%d-%d", g, i)
				bus.Subscribe(EventLossRate, ResponderFunc{RName: name, Fn: func(Event) error { return nil }})
				if !bus.Unsubscribe(EventLossRate, name) {
					t.Errorf("responder %s vanished before Unsubscribe", name)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				bus.Dropped()
				bus.Errors()
				bus.SubscriberTypes()
			}
		}(g)
	}
	wg.Wait()
	bus.Stop()
	if errs := bus.Errors(); len(errs) != 0 {
		t.Fatalf("responder errors: %v", errs)
	}
}

// TestBusPublishRacesStop hammers Publish from several goroutines while the
// bus stops, the shutdown shape the engine produces when a receiver report
// arrives on the read loop as session teardown stops the bus. A send on the
// closed queue would panic; the test passes iff nothing does.
func TestBusPublishRacesStop(t *testing.T) {
	for i := 0; i < 50; i++ {
		bus := NewBus(4)
		if err := bus.Start(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 20; j++ {
					bus.Publish(Event{Type: EventLossRate, Value: 0.5})
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			bus.Stop()
		}()
		close(start)
		wg.Wait()
	}
}
