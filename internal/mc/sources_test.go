package mc

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/vm"
)

// TestFreshTrackerCommitAndRestore drives the freshness tracker by hand:
// a copy inherits its source's production time (0 for a source never
// written), a restore reverts every production time to the last commit,
// and a send of a value older than its budget is flagged by name.
func TestFreshTrackerCommitAndRestore(t *testing.T) {
	src := `
@expires_after=100 int sample;
int copy;
int main() {
    sample = sense(0);
    copy = sample;
    send(sample);
    return 0;
}`
	img, _, err := replay.BuildImage(replay.Spec{Source: src, Runtime: "tics"})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := buildProvenance(img)
	if err != nil {
		t.Fatal(err)
	}
	addr := map[string]uint32{}
	for _, s := range prov.spans {
		addr[s.name] = s.base
	}
	sample := prov.globalAt(addr["sample"])
	copyID := prov.globalAt(addr["copy"])
	var copyPC, sendPC uint32
	for off := range prov.stores {
		if s := prov.stores[off]; s.known && len(s.globals) == 1 && s.globals[0] == sample {
			copyPC = prov.textBase + uint32(off)
		}
		if s := prov.sends[off]; s.known && len(s.globals) == 1 && s.globals[0] == sample {
			sendPC = prov.textBase + uint32(off)
		}
	}
	if sample < 0 || copyID < 0 || copyPC == 0 || sendPC == 0 {
		t.Fatalf("provenance sites not found: sample=%d copy=%d copyPC=%#x sendPC=%#x", sample, copyID, copyPC, sendPC)
	}
	const freshPC = 0 // no provenance site: the store produces a fresh value

	tr := newFreshTracker(prov, 0)
	tr.onStore(copyPC, addr["copy"], 600)
	if tr.prod[copyID] != 0 {
		t.Fatalf("copy of a never-written source produced at %d, want its boot-time 0", tr.prod[copyID])
	}
	tr.onStore(freshPC, addr["sample"], 10)
	tr.OnEvent(0, obs.Event{Kind: obs.EvCheckpointCommit})
	tr.onStore(freshPC, addr["sample"], 500)
	tr.OnEvent(1, obs.Event{Kind: obs.EvRestore})
	if tr.prod[sample] != 10 {
		t.Fatalf("restore left sample produced at %d, want the committed 10", tr.prod[sample])
	}
	tr.onStore(copyPC, addr["copy"], 600)
	if tr.prod[copyID] != 10 {
		t.Fatalf("copy produced at %d, want its source's 10", tr.prod[copyID])
	}
	tr.onSend(vm.SendRec{PC: sendPC, EstMs: 200, Seq: 3})
	if len(tr.stale) != 1 || tr.stale[0] != (StaleSend{PC: sendPC, Global: "sample", Seq: 3, AgeMs: 190, BudgetMs: 100, DeviceMs: 200}) {
		t.Fatalf("stale sends = %+v", tr.stale)
	}

	tr.reset()
	if tr.prod[sample] != 0 || tr.committed[sample] != 0 || tr.stale != nil {
		t.Fatalf("reset left state behind: prod %v committed %v stale %v", tr.prod, tr.committed, tr.stale)
	}
}
