package ir

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

const sample = `
# FIR tap pair
task fir
block inner
in x0 x1 c0 c1
t0 = x0 * c0
t1 = x1 * c1
y = t0 + t1
n = neg y
m = n          # mov shorthand
s = mac t0 t1  # mnemonic binary
out m s
end
`

func TestParseSample(t *testing.T) {
	p, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tasks) != 1 || p.Tasks[0].Name != "fir" {
		t.Fatalf("tasks %+v", p.Tasks)
	}
	b := p.Block("inner")
	if b == nil {
		t.Fatal("block missing")
	}
	if len(b.Inputs) != 4 || len(b.Outputs) != 2 || len(b.Instrs) != 6 {
		t.Fatalf("block shape: in=%d out=%d instrs=%d", len(b.Inputs), len(b.Outputs), len(b.Instrs))
	}
	if b.Instrs[0].Op != OpMul || b.Instrs[2].Op != OpAdd || b.Instrs[3].Op != OpNeg {
		t.Fatalf("ops: %v", b.Instrs)
	}
}

func TestParseInstrCount(t *testing.T) {
	p, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Block("inner")
	if got := len(b.Instrs); got != 6 {
		// t0, t1, y, n, m, s
		t.Fatalf("instrs = %d, want 6", got)
	}
	if b.Instrs[5].Op != OpMac {
		t.Fatalf("instr 5 = %v, want mac", b.Instrs[5])
	}
	if b.Instrs[4].Op != OpMov {
		t.Fatalf("instr 4 = %v, want mov", b.Instrs[4])
	}
}

func TestParseDefaultTask(t *testing.T) {
	p, err := ParseString("block b\nin x\ny = neg x\nout y\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Tasks[0].Name != "main" {
		t.Fatalf("default task %q", p.Tasks[0].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"instr outside block", "y = neg x\n"},
		{"in outside block", "in x\n"},
		{"out outside block", "out x\n"},
		{"task arity", "task a b\n"},
		{"block arity", "block\n"},
		{"bad instr", "block b\nfoo bar\n"},
		{"unknown op", "block b\nin x\ny = frob x\n"},
		{"unary op with two args", "block b\nin x z\ny = neg x z\n"},
		{"binary op with one arg", "block b\nin x\ny = add x\n"},
		{"semantic: undefined var", "block b\ny = neg x\n"},
		{"too many operands", "block b\nin x\ny = add x x x\n"},
	}
	for _, tc := range cases {
		if _, err := ParseString(tc.src); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestParseLongLines: the scanner grows its buffer for a line past 64 KiB
// and still rejects a line past its 1 MiB cap.
func TestParseLongLines(t *testing.T) {
	cases := []struct {
		name    string
		comment int // bytes of trailing comment on the instruction line
		tooLong bool
	}{
		{"just over 64 KiB", 64<<10 + 1, false},
		{"over 1 MiB", 1<<20 + 1, true},
	}
	for _, tc := range cases {
		src := "block b\nin x\ny = neg x #" + strings.Repeat("c", tc.comment) + "\nout y\n"
		p, err := ParseString(src)
		if tc.tooLong {
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("%s: err %v, want bufio.ErrTooLong", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := len(p.Tasks[0].Blocks[0].Instrs); n != 1 {
			t.Errorf("%s: %d instructions, want 1", tc.name, n)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := ParseString("block b\nin x\nbad line here extra\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("err %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Fatalf("line %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Fatalf("message %q", pe.Error())
	}
}

func TestParseInfixOps(t *testing.T) {
	src := "block b\nin a c\nd = a + c\ne = a - c\nf = a * c\ng = a / c\nh = a << c\ni = a >> c\nout d e f g h i\n"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []OpKind{OpAdd, OpSub, OpMul, OpDiv, OpShl, OpShr}
	for i, k := range want {
		if p.Tasks[0].Blocks[0].Instrs[i].Op != k {
			t.Errorf("instr %d op %v, want %v", i, p.Tasks[0].Blocks[0].Instrs[i].Op, k)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	p, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := Format(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := ParseString(buf.String())
	if err != nil {
		t.Fatalf("reparse: %v\ntext:\n%s", err, buf.String())
	}
	b1, b2 := p.Block("inner"), p2.Block("inner")
	if len(b1.Instrs) != len(b2.Instrs) {
		t.Fatalf("instr count changed: %d vs %d", len(b1.Instrs), len(b2.Instrs))
	}
	for i := range b1.Instrs {
		if b1.Instrs[i].String() != b2.Instrs[i].String() {
			t.Fatalf("instr %d changed: %q vs %q", i, b1.Instrs[i], b2.Instrs[i])
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	src := "\n\n# only comments\nblock b # trailing\nin x\n\ny = neg x # compute\nout y\n"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tasks[0].Blocks[0].Instrs) != 1 {
		t.Fatal("comment handling broke instruction parsing")
	}
}
