package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTraceWireFormat pins the engine-trace/v1 bytes: TraceWriter must
// write exactly these lines, and Load must read them back into exactly
// the records they were written from. A round-trip test alone would
// pass a field renamed on both sides; this one fails on any rename,
// reorder or change of an omission rule.
func TestTraceWireFormat(t *testing.T) {
	faults := core.FaultStats{Drops: 1, Corruptions: 2, Delays: 3, Duplicates: 4, Collisions: 5, Crashes: 6}
	stats := core.Stats{Rounds: 2, Steps: 3, TotalBits: 40, MaxLinkBits: 16, MaxNodeBits: 24, CutBits: 24, NodeSentBits: []int64{24, 16, 0, 0}}
	cases := []struct {
		name string
		tr   Trace
		want []string
	}{
		{
			name: "faulty",
			tr: Trace{
				Meta: core.RunMeta{N: 4, Bandwidth: 16, Model: core.Congest, Seed: -2, Parallelism: 4, Faulty: true},
				Rounds: []core.RoundTrace{
					{
						Round: 7, Sends: 3, SentBits: 40, Delivered: 5, DeliveredBits: 72,
						MaxLinkBits: 16, CutBits: 24, Active: 4, Halted: 1, Faults: faults,
						Marks:  []core.Mark{{Node: 0, Round: 7, Name: "phase a"}, {Node: 2, Round: 7, Name: "b"}},
						WallNs: 1234,
					},
					{Round: 8, Active: 3},
				},
				Footer: &core.RunFooter{Stats: stats, Faults: &faults, Pending: 2},
			},
			want: []string{
				`{"type":"start","version":"engine-trace/v1","n":4,"bandwidth":16,"model":"CONGEST-UCAST","seed":-2,"parallelism":4,"faulty":true}`,
				`{"type":"round","round":7,"sends":3,"sent_bits":40,"delivered":5,"delivered_bits":72,"max_link_bits":16,"cut_bits":24,"active":4,"halted":1,"faults":{"drops":1,"corruptions":2,"delays":3,"duplicates":4,"collisions":5,"crashes":6},"marks":[{"node":0,"round":7,"name":"phase a"},{"node":2,"round":7,"name":"b"}],"wall_ns":1234}`,
				`{"type":"round","round":8,"sends":0,"sent_bits":0,"delivered":0,"delivered_bits":0,"max_link_bits":0,"active":3,"wall_ns":0}`,
				`{"type":"end","stats":{"Rounds":2,"Steps":3,"TotalBits":40,"MaxLinkBits":16,"MaxNodeBits":24,"CutBits":24,"NodeSentBits":[24,16,0,0]},"faults":{"drops":1,"corruptions":2,"delays":3,"duplicates":4,"collisions":5,"crashes":6},"pending":2}`,
			},
		},
		{
			name: "clean",
			tr: Trace{
				Meta:   core.RunMeta{N: 3, Bandwidth: 8, Model: core.Unicast, Seed: 5, Parallelism: 1},
				Rounds: []core.RoundTrace{{Round: 0, Sends: 6, SentBits: 48, Delivered: 6, DeliveredBits: 48, MaxLinkBits: 8, Active: 3, WallNs: 99}},
				Footer: &core.RunFooter{Stats: core.Stats{Rounds: 1, Steps: 1, TotalBits: 48, MaxLinkBits: 8, MaxNodeBits: 16, NodeSentBits: []int64{16, 16, 16}}},
			},
			want: []string{
				`{"type":"start","version":"engine-trace/v1","n":3,"bandwidth":8,"model":"CLIQUE-UCAST","seed":5,"parallelism":1}`,
				`{"type":"round","round":0,"sends":6,"sent_bits":48,"delivered":6,"delivered_bits":48,"max_link_bits":8,"active":3,"wall_ns":99}`,
				`{"type":"end","stats":{"Rounds":1,"Steps":1,"TotalBits":48,"MaxLinkBits":8,"MaxNodeBits":16,"CutBits":0,"NodeSentBits":[16,16,16]}}`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewTraceWriter(&buf)
			replay(&tc.tr, w)
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			want := strings.Join(tc.want, "\n") + "\n"
			if got := buf.String(); got != want {
				t.Fatalf("wire bytes differ:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			loaded, err := Load(strings.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loaded, &tc.tr) {
				t.Fatalf("Load = %+v, want %+v", loaded, &tc.tr)
			}
		})
	}
}

// Traces written before records dropped their span and workers fields
// still load, and still reconcile: every record covered one step.
func TestLoadTraceWithRetiredFields(t *testing.T) {
	lines := strings.Join([]string{
		`{"type":"start","version":"engine-trace/v1","n":3,"bandwidth":8,"model":"CLIQUE-UCAST","seed":5,"parallelism":2}`,
		`{"type":"round","round":0,"span":1,"sends":6,"sent_bits":48,"delivered":6,"delivered_bits":48,"max_link_bits":8,"active":3,"workers":[2,1],"wall_ns":99}`,
		`{"type":"round","round":1,"span":1,"sends":0,"sent_bits":0,"delivered":0,"delivered_bits":0,"max_link_bits":0,"active":3,"halted":3,"workers":[2,1],"wall_ns":7}`,
		`{"type":"end","stats":{"Rounds":1,"Steps":2,"TotalBits":48,"MaxLinkBits":8,"MaxNodeBits":16,"CutBits":0,"NodeSentBits":[16,16,16]}}`,
	}, "\n")
	tr, err := Load(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.RoundTrace{
		{Round: 0, Sends: 6, SentBits: 48, Delivered: 6, DeliveredBits: 48, MaxLinkBits: 8, Active: 3, WallNs: 99},
		{Round: 1, Active: 3, Halted: 3, WallNs: 7},
	}
	if !reflect.DeepEqual(tr.Rounds, want) {
		t.Fatalf("records = %+v, want %+v", tr.Rounds, want)
	}
	if err := Reconcile(tr); err != nil {
		t.Fatal(err)
	}
}
