// Package blif reads and writes combinational circuits in the
// Berkeley Logic Interchange Format (BLIF), the format the paper's
// benchmark suites are distributed in. The reader accepts multi-cube
// single-output .names covers (with don't-cares) in any declaration
// order and builds a structurally hashed AIG; the writer emits one
// two-input cover per AND node, folding complement edges into the
// cube literals.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"accals/internal/aig"
	"accals/internal/runctl"
)

// errf builds a parse error wrapping runctl.ErrMalformedInput, so
// callers can classify rejects with errors.Is.
func errf(format string, args ...any) error {
	return fmt.Errorf("blif: %s: %w", fmt.Sprintf(format, args...), runctl.ErrMalformedInput)
}

// cover is one parsed .names block.
type cover struct {
	inputs []string
	output string
	cubes  []string // input parts of on-set/off-set rows
	outVal byte     // '1' for on-set rows, '0' for off-set rows
	line   int
}

// Read parses a BLIF model into an AIG.
func Read(r io.Reader) (*aig.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	model := "blif"
	var inputs, outputs []string
	var covers []*cover
	var cur *cover
	lineNo := 0

	flushCover := func() {
		if cur != nil {
			covers = append(covers, cur)
			cur = nil
		}
	}

	var pending string
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Handle line continuations.
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		if pending != "" {
			line = pending + line
			pending = ""
		}

		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				model = fields[1]
			}
		case ".inputs":
			flushCover()
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			flushCover()
			outputs = append(outputs, fields[1:]...)
		case ".names":
			flushCover()
			if len(fields) < 2 {
				return nil, errf("line %d: .names needs at least an output", lineNo)
			}
			cur = &cover{
				inputs: fields[1 : len(fields)-1],
				output: fields[len(fields)-1],
				line:   lineNo,
			}
		case ".end":
			flushCover()
		case ".latch", ".gate", ".mlatch", ".subckt":
			return nil, errf("line %d: unsupported construct %s (combinational .names only)", lineNo, fields[0])
		default:
			if cur == nil {
				return nil, errf("line %d: cube outside .names", lineNo)
			}
			// Cube row: "<in-part> <out-val>" or just "<out-val>" for
			// constant functions.
			var inPart string
			var outVal byte
			if len(fields) == 1 {
				if len(cur.inputs) != 0 {
					return nil, errf("line %d: cube arity mismatch", lineNo)
				}
				outVal = fields[0][0]
			} else if len(fields) == 2 {
				inPart = fields[0]
				outVal = fields[1][0]
			} else {
				return nil, errf("line %d: malformed cube", lineNo)
			}
			if len(inPart) != len(cur.inputs) {
				return nil, errf("line %d: cube width %d does not match %d inputs", lineNo, len(inPart), len(cur.inputs))
			}
			if outVal != '0' && outVal != '1' {
				return nil, errf("line %d: output value %q", lineNo, outVal)
			}
			if len(cur.cubes) > 0 && cur.outVal != outVal {
				return nil, errf("line %d: mixed on-set and off-set rows", lineNo)
			}
			cur.outVal = outVal
			cur.cubes = append(cur.cubes, inPart)
		}
	}
	flushCover()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending != "" {
		return nil, errf("dangling line continuation at end of input")
	}

	return build(model, inputs, outputs, covers)
}

// build elaborates parsed covers into an AIG, processing them in
// dependency order.
func build(model string, inputs, outputs []string, covers []*cover) (*aig.Graph, error) {
	g := aig.New(model)
	signal := make(map[string]aig.Lit, len(inputs)+len(covers))
	for _, in := range inputs {
		if _, dup := signal[in]; dup {
			return nil, errf("duplicate input %q", in)
		}
		signal[in] = g.AddPI(in)
	}

	byOutput := make(map[string]*cover, len(covers))
	for _, c := range covers {
		if _, dup := byOutput[c.output]; dup {
			return nil, errf("line %d: signal %q defined twice", c.line, c.output)
		}
		if _, isPI := signal[c.output]; isPI {
			return nil, errf("line %d: signal %q redefines an input", c.line, c.output)
		}
		byOutput[c.output] = c
	}

	// Iterative DFS elaboration in dependency order.
	var elaborate func(name string, stack map[string]bool) (aig.Lit, error)
	elaborate = func(name string, stack map[string]bool) (aig.Lit, error) {
		if l, ok := signal[name]; ok {
			return l, nil
		}
		c, ok := byOutput[name]
		if !ok {
			return 0, errf("signal %q has no driver", name)
		}
		if stack[name] {
			return 0, errf("combinational cycle through %q", name)
		}
		stack[name] = true
		ins := make([]aig.Lit, len(c.inputs))
		for i, in := range c.inputs {
			l, err := elaborate(in, stack)
			if err != nil {
				return 0, err
			}
			ins[i] = l
		}
		delete(stack, name)

		// Sum of products over the cubes.
		sum := aig.ConstFalse
		for _, cube := range c.cubes {
			term := aig.ConstTrue
			for i := 0; i < len(cube); i++ {
				switch cube[i] {
				case '1':
					term = g.And(term, ins[i])
				case '0':
					term = g.And(term, ins[i].Not())
				case '-':
				default:
					return 0, errf("line %d: cube literal %q", c.line, cube[i])
				}
			}
			sum = g.Or(sum, term)
		}
		if len(c.cubes) == 0 {
			sum = aig.ConstFalse // empty cover is constant 0
		}
		if c.outVal == '0' {
			sum = sum.Not() // off-set cover
		}
		signal[name] = sum
		return sum, nil
	}

	// First pass: elaborate covers in declaration order whenever their
	// inputs are already defined. Write emits covers in node-id order,
	// so on writer-produced BLIF this recreates nodes in their original
	// sequence and the round-trip is id-stable — which is what lets a
	// checkpointed run resume on the exact same trajectory. Covers with
	// forward references fall through to the output-driven elaboration
	// below, which preserves the any-declaration-order semantics.
	for _, c := range covers {
		if _, done := signal[c.output]; done {
			continue
		}
		ready := true
		for _, in := range c.inputs {
			if _, ok := signal[in]; !ok {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		if _, err := elaborate(c.output, map[string]bool{}); err != nil {
			return nil, err
		}
	}

	for _, out := range outputs {
		l, err := elaborate(out, map[string]bool{})
		if err != nil {
			return nil, err
		}
		g.AddPO(l, out)
	}
	return g.Sweep(), nil
}

// Write emits g as a BLIF model.
func Write(w io.Writer, g *aig.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", sanitize(g.Name))

	piName := make(map[int]string, g.NumPIs())
	fmt.Fprint(bw, ".inputs")
	for i, id := range g.PIs() {
		n := g.PIName(i)
		if n == "" {
			n = fmt.Sprintf("pi%d", i)
		}
		piName[id] = n
		fmt.Fprintf(bw, " %s", n)
	}
	fmt.Fprintln(bw)

	fmt.Fprint(bw, ".outputs")
	poNames := make([]string, g.NumPOs())
	for i := range g.POs() {
		n := g.POName(i)
		if n == "" {
			n = fmt.Sprintf("po%d", i)
		}
		poNames[i] = n
		fmt.Fprintf(bw, " %s", n)
	}
	fmt.Fprintln(bw)

	name := func(id int) string {
		if n, ok := piName[id]; ok {
			return n
		}
		return fmt.Sprintf("n%d", id)
	}

	// One 2-input cover per AND node, complement edges as 0-literals.
	for id := 0; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		n := g.NodeAt(id)
		c0, c1 := byte('1'), byte('1')
		if n.Fanin0.IsCompl() {
			c0 = '0'
		}
		if n.Fanin1.IsCompl() {
			c1 = '0'
		}
		fmt.Fprintf(bw, ".names %s %s %s\n%c%c 1\n",
			name(n.Fanin0.Node()), name(n.Fanin1.Node()), name(id), c0, c1)
	}

	// Output drivers.
	for i, l := range g.POs() {
		switch {
		case l == aig.ConstFalse:
			fmt.Fprintf(bw, ".names %s\n", poNames[i]) // empty cover = 0
		case l == aig.ConstTrue:
			fmt.Fprintf(bw, ".names %s\n1\n", poNames[i])
		case l.IsCompl():
			fmt.Fprintf(bw, ".names %s %s\n0 1\n", name(l.Node()), poNames[i])
		default:
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", name(l.Node()), poNames[i])
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// sanitize strips whitespace from model names.
func sanitize(s string) string {
	if s == "" {
		return "circuit"
	}
	return strings.Join(strings.Fields(s), "_")
}

// ReadString parses a BLIF model from a string (test convenience).
func ReadString(s string) (*aig.Graph, error) {
	return Read(strings.NewReader(s))
}
