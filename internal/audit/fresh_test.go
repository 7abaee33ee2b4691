package audit

import (
	"reflect"
	"testing"

	tics "repro"
	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/vm"
)

// TestFreshnessCommitAndRestore drives the auditor's freshness record by
// hand: a copy inherits its source's production time (0 for a source
// never written), a restore reverts every production time to the last
// commit, a send records its payload's age by name, and Reattach on the
// same image starts the record over while keeping the provenance index.
func TestFreshnessCommitAndRestore(t *testing.T) {
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
	m, err := tics.NewMachine(img, tics.RunOptions{Power: power.Continuous{}, Recorder: obs.NewRecorder(obs.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Attach(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prov := a.prov
	addr := img.Symbols
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
	store := func(pc, addr uint32, deviceMs int64) {
		m.Regs.PC = pc
		a.produce(addr, deviceMs)
	}

	store(copyPC, addr["copy"], 600)
	if a.prod[copyID] != 0 {
		t.Fatalf("copy of a never-written source produced at %d, want its boot-time 0", a.prod[copyID])
	}
	store(freshPC, addr["sample"], 10)
	a.OnEvent(0, obs.Event{Kind: obs.EvCheckpointCommit})
	store(freshPC, addr["sample"], 500)
	a.OnEvent(1, obs.Event{Kind: obs.EvRestore})
	if a.prod[sample] != 10 {
		t.Fatalf("restore left sample produced at %d, want the committed 10", a.prod[sample])
	}
	store(copyPC, addr["copy"], 600)
	if a.prod[copyID] != 10 {
		t.Fatalf("copy produced at %d, want its source's 10", a.prod[copyID])
	}
	m.OnSend(vm.SendRec{PC: sendPC, EstMs: 200, Seq: 3})
	want := []SendAge{{SendRec: vm.SendRec{PC: sendPC, EstMs: 200, Seq: 3}, Global: "sample", ExpiresMs: 100, AgeMs: 190}}
	if !reflect.DeepEqual(a.SendAges(), want) {
		t.Fatalf("send ages = %+v, want %+v", a.SendAges(), want)
	}

	m.Recorder().Reset()
	m.OnStore = nil
	if err := a.Reattach(m, Options{}); err != nil {
		t.Fatal(err)
	}
	if a.prov != prov {
		t.Fatal("Reattach on the same image rebuilt the provenance index")
	}
	if a.prod[sample] != 0 || a.prodCommitted[sample] != 0 || len(a.SendAges()) != 0 {
		t.Fatalf("Reattach left state behind: prod %v committed %v send ages %v", a.prod, a.prodCommitted, a.SendAges())
	}
}

// TestShippedSitesResolve pins the freshness record's coverage: every
// Send and every direct global store of every shipped app built for TICS
// has a resolved provenance site in the auditor's table. An unresolved
// site would silently drop that send's ages or make that store look
// fresh.
func TestShippedSitesResolve(t *testing.T) {
	sends, stores := 0, 0
	for _, a := range apps.Every() {
		img, err := tics.Build(a.Source, tics.BuildOptions{Runtime: tics.RTTICS})
		if err != nil {
			t.Fatal(err)
		}
		prov := newProvenance(img.Image)
		for _, s := range analysis.DataProvenance(img.Program) {
			pc := img.Funcs[s.Func].Entry + s.Off
			table := prov.stores
			if s.Send {
				table, sends = prov.sends, sends+1
			} else {
				stores++
			}
			if !s.Resolved || !prov.at(table, pc).known {
				t.Errorf("%s: site %+v at %#x does not resolve", a.Name, s, pc)
			}
		}
	}
	// The shipped apps' site counts; a change here is a change in what
	// the freshness record covers.
	if sends != 8 || stores != 20 {
		t.Fatalf("%d sends and %d direct global stores, want 8 and 20", sends, stores)
	}
}
