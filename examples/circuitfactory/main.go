// Circuitfactory demonstrates Theorem 2: circuits with b-separable gates
// and few wires run on the unicast congested clique in O(depth) rounds.
// It simulates parity (XOR tree and the CC[2] form), majority (a TC0
// circuit) and random ACC circuits, comparing clique outputs against
// direct evaluation and showing that rounds track depth, not size.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/circsim"
	"repro/internal/circuit"
	"repro/internal/core"
)

func main() {
	const (
		players   = 8
		bandwidth = 32
		inputs    = 64
		seed      = 3
	)
	rng := rand.New(rand.NewSource(seed))

	mk := func(c *circuit.Circuit, err error) *circuit.Circuit {
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	circuits := []namedCircuit{
		{"parity (XOR tree, fan-in 4)", mk(circuit.ParityXorTree(inputs, 4))},
		{"parity (CC[2]: NOT∘MOD2)", mk(circuit.ParityMod2(inputs))},
		{"majority (one THR gate)", mk(circuit.MajorityCircuit(inputs))},
		{"majority-of-majorities (TC0)", mk(circuit.MajorityOfMajorities(inputs, 8))},
		{"random CC[6] depth 4", mk(circuit.RandomCC(inputs, 16, 4, 5, 6, rng))},
		{"random ACC depth 6", mk(circuit.RandomACC(inputs, 16, 6, 5, 6, rng))},
	}

	fmt.Printf("%-30s %6s %7s %6s %7s %7s %9s\n",
		"circuit", "depth", "wires", "s", "rounds", "r/D", "maxLink")
	for _, nc := range circuits {
		in := make([]bool, inputs)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		want, err := nc.c.Eval(in)
		if err != nil {
			log.Fatal(err)
		}
		res, err := circsim.EvalOnClique(core.Env{}, nc.c, players, bandwidth, in, nil, seed)
		if err != nil {
			log.Fatal(err)
		}
		for i := range want {
			if res.Output[i] != want[i] {
				log.Fatalf("%s: clique output %d differs from direct evaluation", nc.name, i)
			}
		}
		d := nc.c.Depth()
		fmt.Printf("%-30s %6d %7d %6d %7d %7.1f %9d\n",
			nc.name, d, nc.c.Wires(), res.Plan.S,
			res.Stats.Rounds, float64(res.Stats.Rounds)/float64(d),
			res.Stats.MaxLinkBits)
	}
	fmt.Println("\nall clique outputs match direct evaluation; rounds/depth stays O(1)")
}

type namedCircuit struct {
	name string
	c    *circuit.Circuit
}
