package ir

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error formats the parse error with its 1-based source line.
func (e *ParseError) Error() string {
	return fmt.Sprintf("ir: line %d: %s", e.Line, e.Msg)
}

// Parse reads a program in the TAC text format:
//
//	# comment
//	task fir            — optional; a default task is created otherwise
//	block inner
//	in x0 x1 c0
//	t0 = x0 * c0        — infix form (+ - * / << >>)
//	t1 = mac t0 x1      — mnemonic form
//	t2 = neg t1         — unary mnemonic
//	t3 = t2             — mov shorthand
//	out t3
//
// Blank lines and # comments are ignored. Every instruction line belongs to
// the most recent "block" directive.
func Parse(r io.Reader) (*Program, error) {
	p := &Program{}
	var task *Task
	var block *Block
	sc := bufio.NewScanner(r)
	// Start from the scanner's small default buffer and grow only for long
	// lines, up to a 1 MiB line cap.
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "task":
			if len(fields) != 2 {
				return nil, &ParseError{lineNo, "task directive wants exactly one name"}
			}
			task = &Task{Name: fields[1]}
			p.Tasks = append(p.Tasks, task)
			block = nil
		case "block":
			if len(fields) != 2 {
				return nil, &ParseError{lineNo, "block directive wants exactly one name"}
			}
			if task == nil {
				task = &Task{Name: "main"}
				p.Tasks = append(p.Tasks, task)
			}
			block = &Block{Name: fields[1]}
			task.Blocks = append(task.Blocks, block)
		case "in":
			if block == nil {
				return nil, &ParseError{lineNo, "'in' outside a block"}
			}
			block.Inputs = append(block.Inputs, fields[1:]...)
		case "out":
			if block == nil {
				return nil, &ParseError{lineNo, "'out' outside a block"}
			}
			block.Outputs = append(block.Outputs, fields[1:]...)
		case "end":
			block = nil
		default:
			if block == nil {
				return nil, &ParseError{lineNo, "instruction outside a block"}
			}
			instr, err := parseInstr(fields)
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			block.Instrs = append(block.Instrs, instr)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ir: read: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Program, error) {
	return Parse(strings.NewReader(s))
}

func parseInstr(fields []string) (Instr, error) {
	// All instruction forms are "dst = ...".
	if len(fields) < 3 || fields[1] != "=" {
		return Instr{}, fmt.Errorf("malformed instruction %q", strings.Join(fields, " "))
	}
	dst := fields[0]
	rhs := fields[2:]
	switch len(rhs) {
	case 1:
		// dst = src  (mov shorthand)
		return Instr{Op: OpMov, Dst: dst, Src: []string{rhs[0]}}, nil
	case 2:
		// dst = op src (unary mnemonic)
		kind, ok := OpKindByName(rhs[0])
		if !ok {
			return Instr{}, fmt.Errorf("unknown op %q", rhs[0])
		}
		if kind.Arity() != 1 {
			return Instr{}, fmt.Errorf("op %q wants %d operands, got 1", rhs[0], kind.Arity())
		}
		return Instr{Op: kind, Dst: dst, Src: []string{rhs[1]}}, nil
	case 3:
		// Infix: dst = a OP b. Mnemonic: dst = op a b.
		if kind, ok := opSymbols[rhs[1]]; ok {
			return Instr{Op: kind, Dst: dst, Src: []string{rhs[0], rhs[2]}}, nil
		}
		kind, ok := OpKindByName(rhs[0])
		if !ok {
			return Instr{}, fmt.Errorf("unknown op %q", rhs[0])
		}
		if kind.Arity() != 2 {
			return Instr{}, fmt.Errorf("op %q wants %d operands, got 2", rhs[0], kind.Arity())
		}
		return Instr{Op: kind, Dst: dst, Src: []string{rhs[1], rhs[2]}}, nil
	default:
		return Instr{}, fmt.Errorf("malformed instruction %q", strings.Join(fields, " "))
	}
}

// Format writes the program back in parseable TAC text.
func Format(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	for _, t := range p.Tasks {
		fmt.Fprintf(bw, "task %s\n", t.Name)
		for _, b := range t.Blocks {
			fmt.Fprintf(bw, "block %s\n", b.Name)
			if len(b.Inputs) > 0 {
				fmt.Fprintf(bw, "in %s\n", strings.Join(b.Inputs, " "))
			}
			for _, in := range b.Instrs {
				fmt.Fprintln(bw, in.String())
			}
			if len(b.Outputs) > 0 {
				fmt.Fprintf(bw, "out %s\n", strings.Join(b.Outputs, " "))
			}
			fmt.Fprintln(bw, "end")
		}
	}
	return bw.Flush()
}
