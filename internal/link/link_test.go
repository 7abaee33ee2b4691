package link_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/mem"
)

const src = `
int init = 42;
int zeroed[4];
char msg[3] = {72, 73};

int main() {
    mark(0);
    mark(1);
    return init + zeroed[0] + msg[0];
}
`

func TestLayoutInvariants(t *testing.T) {
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, link.RuntimeSpec{Name: "x", RuntimeBytes: 64, StackBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Region ordering: runtime < text < globals < stack, no overlap.
	if !(img.RuntimeBase < img.TextBase && img.TextBase < img.GlobalsBase &&
		img.GlobalsBase <= img.BSSBase && img.BSSBase <= img.MarkBase &&
		img.MarkBase < img.StackBase) {
		t.Fatalf("layout out of order: %+v", img)
	}
	if img.MarkCount != 2 {
		t.Fatalf("mark count %d", img.MarkCount)
	}
	// Every symbol lands in the globals area.
	for name, addr := range img.Symbols {
		if addr < img.GlobalsBase || addr >= img.StackBase {
			t.Fatalf("symbol %s at %#x outside globals", name, addr)
		}
	}
	// Loading registers regions without overlap and places the data image.
	m := mem.New()
	if err := img.LoadInto(m); err != nil {
		t.Fatal(err)
	}
	a, _ := img.GlobalAddr("init")
	if m.ReadInt(a) != 42 {
		t.Fatalf("init value: %d", m.ReadInt(a))
	}
	a, _ = img.GlobalAddr("msg")
	if m.ReadByteAt(a) != 72 || m.ReadByteAt(a+1) != 73 || m.ReadByteAt(a+2) != 0 {
		t.Fatal("char array image wrong")
	}
	a, _ = img.GlobalAddr("zeroed")
	if m.ReadInt(a) != 0 {
		t.Fatal("bss not zero")
	}
}

func TestFuncMetadata(t *testing.T) {
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, link.RuntimeSpec{Name: "x", RuntimeBytes: 64, StackBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := img.FuncAt(0)
	if err != nil || meta.Name != "main" {
		t.Fatalf("FuncAt: %+v %v", meta, err)
	}
	if meta.FrameBytes < 4 || meta.EntryCopyBytes < 4 {
		t.Fatalf("frame accounting: %+v", meta)
	}
	if _, err := img.FuncAt(99); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestImageTooBig(t *testing.T) {
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Link(prog, link.RuntimeSpec{Name: "x", RuntimeBytes: 60_000, StackBytes: 8192}); err == nil {
		t.Fatal("oversized image linked")
	}
}

func TestSectionsAccounting(t *testing.T) {
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, link.RuntimeSpec{
		Name: "x", RuntimeBytes: 64, StackBytes: 1024,
		ExtraTextBytes: 1000, ExtraDataBytes: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if img.Sect.Text <= 1000 || img.Sect.Data < 500 || img.Sect.BSS <= 0 {
		t.Fatalf("sections: %+v", img.Sect)
	}
}
