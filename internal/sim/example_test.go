package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// ExampleSimulator shows the discrete-event basics: scheduling, virtual
// time, and deterministic named random streams.
func ExampleSimulator() {
	s := sim.New(42)
	s.Schedule(sim.Time(10*sim.Millisecond), func() {
		fmt.Println("at", s.Now())
	})
	s.After(5*sim.Millisecond, func() {
		fmt.Println("first:", s.Now())
	})
	s.RunAll()
	// Named streams are independent and reproducible.
	a := s.RNG("alpha").Int63()
	b := sim.New(42).RNG("alpha").Int63()
	fmt.Println("stream reproducible:", a == b)
	// Output:
	// first: 5.000ms
	// at 10.000ms
	// stream reproducible: true
}

// ExampleSimulator_Train runs a periodic stream, whose times are fixed
// when the train is made: three events a second apart.
func ExampleSimulator_Train() {
	s := sim.New(1)
	s.Train(3, sim.Lane{
		At: func(i int) sim.Time { return sim.Time(i+1) * sim.Time(sim.Second) },
		Fn: func(i int) { fmt.Println("event", i, "at", s.Now()) },
	})
	s.Run(sim.Time(10 * sim.Second))
	// Output:
	// event 0 at 1000.000ms
	// event 1 at 2000.000ms
	// event 2 at 3000.000ms
}
