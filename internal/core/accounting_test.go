package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
)

func TestNodeSentBitsAccounting(t *testing.T) {
	cfg := Config{N: 3, Bandwidth: 16, Model: Unicast}
	res, err := RunProcs(cfg, func(p *Proc) error {
		// Node 0 sends 5 bits to each of 2 peers; node 1 sends 3 bits to
		// node 2; node 2 is silent.
		switch p.ID() {
		case 0:
			m := bits.New(5)
			m.WriteUint(1, 5)
			if err := p.Send(1, m); err != nil {
				return err
			}
			if err := p.Send(2, m); err != nil {
				return err
			}
		case 1:
			m := bits.New(3)
			m.WriteUint(1, 3)
			if err := p.Send(2, m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 3, 0}
	for i, w := range want {
		if res.Stats.NodeSentBits[i] != w {
			t.Errorf("node %d sent %d bits, want %d", i, res.Stats.NodeSentBits[i], w)
		}
	}
	if res.Stats.MaxNodeBits != 10 {
		t.Errorf("MaxNodeBits = %d, want 10", res.Stats.MaxNodeBits)
	}
	if res.Stats.TotalBits != 13 {
		t.Errorf("TotalBits = %d, want 13", res.Stats.TotalBits)
	}
}

func TestCongestBroadcastSugar(t *testing.T) {
	// Broadcast in CONGEST sends only to topology neighbors.
	topo := graph.Star(4) // center 0
	cfg := Config{N: 4, Bandwidth: 8, Model: Congest, Topology: topo}
	res, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 1 {
			m := bits.New(2)
			m.WriteUint(3, 2)
			if err := p.Broadcast(m); err != nil {
				return err
			}
		}
		in := p.Next()
		got := 0
		for _, msg := range in {
			if msg != nil {
				got++
			}
		}
		p.SetOutput(got)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf 1's only neighbor is the center 0.
	if res.Outputs[0].(int) != 1 {
		t.Errorf("center received %v messages, want 1", res.Outputs[0])
	}
	for i := 2; i < 4; i++ {
		if res.Outputs[i].(int) != 0 {
			t.Errorf("leaf %d received %v messages, want 0", i, res.Outputs[i])
		}
	}
}

func TestSendAfterHaltRejected(t *testing.T) {
	// A Proc retained after its body returned must refuse sends.
	var leaked *Proc
	cfg := Config{N: 2, Bandwidth: 8, Model: Unicast}
	_, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 0 {
			leaked = p
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := bits.New(1)
	m.WriteBit(1)
	if err := leaked.Send(1, m); !errors.Is(err, ErrAfterBarrier) {
		t.Errorf("send after halt: err = %v, want ErrAfterBarrier", err)
	}
	if err := leaked.Broadcast(m); !errors.Is(err, ErrAfterBarrier) {
		t.Errorf("broadcast after halt: err = %v, want ErrAfterBarrier", err)
	}
}

func TestMessageIsolation(t *testing.T) {
	// Mutating a buffer after Send must not corrupt the delivered copy.
	cfg := Config{N: 2, Bandwidth: 8, Model: Unicast}
	res, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 0 {
			m := bits.New(4)
			m.WriteUint(0b1010, 4)
			if err := p.Send(1, m); err != nil {
				return err
			}
			m.WriteUint(0b1111, 4) // mutate after staging
			p.Next()
			return nil
		}
		in := p.Next()
		v, err := bits.NewReader(in[0]).ReadUint(4)
		if err != nil {
			return err
		}
		p.SetOutput(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1].(uint64) != 0b1010 {
		t.Errorf("delivered message corrupted: %v", res.Outputs[1])
	}
}

func TestRoundsVsSteps(t *testing.T) {
	// Quiet rounds advance Steps but not Rounds.
	cfg := Config{N: 2, Bandwidth: 8, Model: Broadcast}
	res, err := RunProcs(cfg, func(p *Proc) error {
		p.Next() // round 0: silence
		p.Next() // round 1: silence
		if p.ID() == 0 {
			m := bits.New(1)
			m.WriteBit(1)
			if err := p.Broadcast(m); err != nil {
				return err
			}
		}
		p.Next()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Stats.Rounds)
	}
	if res.Stats.Steps < 3 {
		t.Errorf("Steps = %d, want >= 3", res.Stats.Steps)
	}
}

func TestPerNodeErrorPropagates(t *testing.T) {
	cfg := Config{N: 3, Bandwidth: 8, Model: Broadcast}
	_, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "node 2") {
		t.Errorf("err = %v, want node-2 attribution", err)
	}
}
