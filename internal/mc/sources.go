package mc

import (
	tics "repro"
	"repro/internal/audit"
	"repro/internal/isa"
)

// StaleSend is one committed transmission whose payload outlived its
// freshness budget: the value left the device AgeMs after it was last
// produced from a fresh source, against a budget of BudgetMs.
type StaleSend struct {
	PC       uint32 `json:"pc"`
	Global   string `json:"global"`
	Seq      int64  `json:"seq"`
	AgeMs    int64  `json:"age_ms"`
	BudgetMs int64  `json:"budget_ms"`
	DeviceMs int64  `json:"device_ms"` // device clock at commit
}

// staleSends keeps the committed send sources that outlived their
// freshness budget. Annotated globals use their @expires_after budget;
// unannotated globals use assumeBudgetMs when positive (a scenario knob
// for programs that manage freshness manually, the TV004/TV005 shapes).
func staleSends(ages []audit.SendAge, assumeBudgetMs int64) []StaleSend {
	var stale []StaleSend
	for _, s := range ages {
		budget := s.ExpiresMs
		if budget < 0 && assumeBudgetMs > 0 {
			budget = assumeBudgetMs
		}
		if budget >= 0 && s.AgeMs > budget {
			stale = append(stale, StaleSend{PC: s.PC, Global: s.Global, Seq: s.Seq, AgeMs: s.AgeMs, BudgetMs: budget, DeviceMs: s.EstMs})
		}
	}
	return stale
}

// timeInsensitive reports whether the image's output can depend on timing
// at all: a program with no sensor reads, clock reads, or time-annotation
// opcodes produces the same committed NVM no matter where reboots land,
// so the checker may assert committed-state equality against the oracle.
// It reads the per-function code the image links; the linked text adds
// only the boot stub.
func timeInsensitive(img *tics.Image) bool {
	for _, f := range img.Program.Funcs {
		for _, in := range f.Code {
			switch in.Op {
			case isa.Sense, isa.Now, isa.SetTS, isa.ExpBegin, isa.ExpCatch, isa.ExpEnd, isa.Timely:
				return false
			}
		}
	}
	return true
}
