package tics_test

import (
	"strings"
	"testing"

	tics "repro"
)

// TestWildAddressesFaultTheDevice: loads and stores that leave the 64 KB
// address space — a char pointer decremented below 0, an int pointer at
// 0xfffffffc — must end the run with Result.Fault naming the address on
// every runtime, including those whose logged store reads the old value
// first, instead of panicking the host. Under the plain runtime a store
// reaches RawStore's bounds check, which must not wrap at 2^32.
func TestWildAddressesFaultTheDevice(t *testing.T) {
	progs := []struct {
		name, src, addr string
		plainFault      string // expected fault prefix under the plain runtime
	}{
		{"char-load", `int main() { char *p; p = 0; p = p - 1; return *p; }`, "0xffffffff", "mem: read"},
		{"char-store", `int main() { char *p; p = 0; p = p - 1; *p = 5; return 0; }`, "0xffffffff", "wild store"},
		{"int-store", `int main() { int *p; p = 0; p = p - 1; *p = 5; return *p; }`, "0xfffffffc", "wild store"},
		{"int-load", `int main() { int *p; p = 0; p = p - 1; return *p; }`, "0xfffffffc", "mem: read"},
	}
	for _, p := range progs {
		for _, rt := range []tics.RuntimeKind{tics.RTPlain, tics.RTTICS, tics.RTChinchilla, tics.RTMementos} {
			t.Run(p.name+"/"+string(rt), func(t *testing.T) {
				res, err := tics.Run(p.src, tics.BuildOptions{Runtime: rt}, tics.RunOptions{})
				if res.Fault == nil || err == nil {
					t.Fatalf("want a device fault, got err=%v completed=%v", err, res.Completed)
				}
				if !strings.Contains(res.Fault.Error(), p.addr) {
					t.Fatalf("fault %q does not name %s", res.Fault, p.addr)
				}
				if rt == tics.RTPlain && !strings.HasPrefix(res.Fault.Error(), p.plainFault) {
					t.Fatalf("fault %q, want prefix %q", res.Fault, p.plainFault)
				}
			})
		}
	}
}
