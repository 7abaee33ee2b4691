package vm_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/vm"
)

// sendySrc transmits one packet per loop iteration — each send sits inside
// the failure-prone region between checkpoints.
const sendySrc = `
int main() {
    int i;
    for (i = 0; i < 12; i++) {
        send(100 + i);
    }
    return 0;
}
`

func runSendy(t *testing.T, virtualize bool, cpMs float64, p power.Source) []vm.SendRec {
	t.Helper()
	prog, err := cc.Compile(sendySrc, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := instrument.Apply(prog, instrument.ForTICS()); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{StackBytes: 2048}
	img, err := link.Link(prog, core.Spec(cfg, prog.MinSegmentBytes()))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{
		Image: img, Runtime: rt, Power: p,
		AutoCpPeriodMs:  cpMs,
		VirtualizeSends: virtualize,
		MaxCycles:       200_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil || !res.Completed {
		t.Fatalf("run: %v %+v", err, res)
	}
	return res.SendLog
}

// TestRawRadioDuplicatesUnderFailures documents the phenomenon the paper
// defers to future work: a send replayed after a rollback leaves the
// device twice.
func TestRawRadioDuplicatesUnderFailures(t *testing.T) {
	duplicated := false
	// A 5 ms checkpoint period lets two sends leave the radio between
	// commits, so a failure in between replays one of them.
	for _, k := range []int64{6500, 7300, 8100, 9000} {
		log := runSendy(t, false, 5, &power.FailEvery{Cycles: k, OffMs: 2})
		if len(log) > 12 {
			duplicated = true
		}
		if len(log) < 12 {
			t.Fatalf("k=%d: raw radio lost packets: %d", k, len(log))
		}
	}
	if !duplicated {
		t.Fatal("no duplicate transmissions across the sweep; the raw-radio phenomenon vanished")
	}
}

// TestSendSequenceNumbers pins the sequencing contract the fleet
// gateway's dedup depends on: a send replayed after a rollback reuses
// its committed sequence number (same seq ⇒ same logical packet), so
// the raw radio's at-least-once stream still names each packet uniquely.
func TestSendSequenceNumbers(t *testing.T) {
	replayed := false
	for _, k := range []int64{6500, 7300, 8100, 9000} {
		log := runSendy(t, false, 5, &power.FailEvery{Cycles: k, OffMs: 2})
		bySeq := map[int64]int32{}
		for _, rec := range log {
			if v, dup := bySeq[rec.Seq]; dup {
				replayed = true
				if v != rec.Value {
					t.Fatalf("k=%d: seq %d names values %d and %d", k, rec.Seq, v, rec.Value)
				}
				continue
			}
			bySeq[rec.Seq] = rec.Value
		}
		if len(bySeq) != 12 {
			t.Fatalf("k=%d: %d distinct seqs, want 12", k, len(bySeq))
		}
		for seq, v := range bySeq {
			if v != int32(100+seq) {
				t.Fatalf("k=%d: seq %d carries value %d, want %d", k, seq, v, 100+seq)
			}
		}
	}
	if !replayed {
		t.Fatal("no replayed send across the sweep; the seq-reuse path went unexercised")
	}
}

// TestVirtualizedSendSequenceNumbers: virtualized sends are released
// only at commit points, so every packet leaves once with a strictly
// increasing sequence.
func TestVirtualizedSendSequenceNumbers(t *testing.T) {
	for k := int64(3300); k <= 6500; k += 457 {
		log := runSendy(t, true, 1, &power.FailEvery{Cycles: k, OffMs: 2})
		for i, rec := range log {
			if rec.Seq != int64(i) {
				t.Fatalf("k=%d: packet %d has seq %d", k, i, rec.Seq)
			}
		}
	}
}

// TestVirtualizedSendsAreExactlyOnce: with the I/O virtualization
// extension, every failure sweep yields exactly the oracle's packet
// sequence — no duplicates, no losses.
func TestVirtualizedSendsAreExactlyOnce(t *testing.T) {
	oracle := runSendy(t, true, 1, power.Continuous{})
	if len(oracle) != 12 {
		t.Fatalf("oracle: %d packets", len(oracle))
	}
	for k := int64(3300); k <= 6500; k += 157 {
		log := runSendy(t, true, 1, &power.FailEvery{Cycles: k, OffMs: 2})
		if len(log) != 12 {
			t.Fatalf("k=%d: %d packets, want 12", k, len(log))
		}
		for i, rec := range log {
			if rec.Value != int32(100+i) {
				t.Fatalf("k=%d: packet %d = %d, want %d", k, i, rec.Value, 100+i)
			}
		}
	}
}
