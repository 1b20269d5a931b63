package allsatpre_test

import (
	"fmt"
	"log"
	"strings"

	"allsatpre"
)

// The basic flow: load a circuit, compute a preimage, read the answer.
func Example() {
	c, err := allsatpre.LoadBench("testdata/s27.bench")
	if err != nil {
		log.Fatal(err)
	}
	res, err := allsatpre.Preimage(c, allsatpre.Options{}, "1XX")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("states:", res.Count)
	// Output:
	// states: 8
}

// Preimage of a single counter state: always the two predecessors.
func ExamplePreimage() {
	c := allsatpre.NewCounter(4, true, false)
	res, err := allsatpre.Preimage(c, allsatpre.Options{}, "0110") // state 6
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("count:", res.Count)
	for _, cb := range res.States.Cubes() {
		fmt.Println("cube:", cb)
	}
	// Output:
	// count: 2
	// cube: 0110
	// cube: 1010
}

// Backward reachability to the fixpoint.
func ExampleBackwardReach() {
	c := allsatpre.NewJohnson(4)
	r, err := allsatpre.BackwardReach(c, allsatpre.Options{}, -1, "1111")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("states that can reach 1111:", r.AllCount)
	fmt.Println("fixpoint:", r.Fixpoint)
	// Output:
	// states that can reach 1111: 8
	// fixpoint: true
}

// Unbounded safety checking with a counterexample trace.
func ExampleCheckReachable() {
	c := allsatpre.NewCounter(4, true, false)
	init, _ := allsatpre.Target(c, "0000")
	bad, _ := allsatpre.Target(c, "1100")
	res, err := allsatpre.CheckReachable(c, init, bad, -1, allsatpre.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reachable:", res.Reachable, "in", res.Steps, "steps")
	// Output:
	// reachable: true in 3 steps
}

// Projected all-solutions enumeration over a raw DIMACS formula.
func ExampleEnumerateDimacs() {
	const f = "c proj 1 2\np cnf 3 2\n1 2 0\n-1 3 0\n"
	res, err := allsatpre.EnumerateDimacs(strings.NewReader(f),
		allsatpre.EngineSuccessDriven, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("projected solutions:", res.Count)
	// Output:
	// projected solutions: 3
}

// Bounded model checking finds the distance of a bug.
func ExampleBMC() {
	c := allsatpre.NewCounter(4, true, false)
	init, _ := allsatpre.Target(c, "0000")
	bad, _ := allsatpre.Target(c, "0101")
	res, err := allsatpre.BMC(c, init, bad, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("depth:", res.Depth)
	// Output:
	// depth: 10
}

// Forward image: the dual direction.
func ExampleImage() {
	c := allsatpre.NewCounter(3, true, false)
	res, err := allsatpre.Image(c, allsatpre.Options{}, "000")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("successors of 0:", res.Count)
	// Output:
	// successors of 0: 2
}
