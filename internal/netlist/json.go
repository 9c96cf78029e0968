package netlist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/geom"
	"repro/internal/lib"
)

// The JSON design format captures everything bench.Generate produces:
// geometry, timing environment, combinational cell models, instances and
// connectivity. Register cells are referenced by library cell name, so the
// reader needs the same library the writer used.

type jsonPinRef struct {
	Inst string `json:"inst"`
	Kind int    `json:"kind"`
	Bit  int    `json:"bit"`
}

type jsonNet struct {
	Name    string       `json:"name"`
	IsClock bool         `json:"clock,omitempty"`
	Driver  *jsonPinRef  `json:"driver,omitempty"`
	Sinks   []jsonPinRef `json:"sinks,omitempty"`
}

type jsonInst struct {
	Name     string `json:"name"`
	Kind     int    `json:"kind"`
	Cell     string `json:"cell,omitempty"` // register cell name
	Comb     string `json:"comb,omitempty"` // comb spec name
	X        int64  `json:"x"`
	Y        int64  `json:"y"`
	Fixed    bool   `json:"fixed,omitempty"`
	SizeOnly bool   `json:"sizeOnly,omitempty"`
	Gate     int    `json:"gate,omitempty"`
	ScanPart int    `json:"scanPart,omitempty"`
	// IsInput records port direction for KindPort.
	IsInput bool `json:"isInput,omitempty"`
}

type jsonDesign struct {
	Name   string      `json:"name"`
	Core   [4]int64    `json:"core"`
	SiteW  int64       `json:"siteW"`
	RowH   int64       `json:"rowH"`
	Timing TimingSpec  `json:"timing"`
	Combs  []*CombSpec `json:"combs"`
	Insts  []jsonInst  `json:"insts"`
	Nets   []jsonNet   `json:"nets"`
}

// WriteJSON serializes the design.
func (d *Design) WriteJSON(w io.Writer) error {
	jd := jsonDesign{
		Name:   d.Name,
		Core:   [4]int64{d.Core.Lo.X, d.Core.Lo.Y, d.Core.Hi.X, d.Core.Hi.Y},
		SiteW:  d.SiteW,
		RowH:   d.RowH,
		Timing: d.Timing,
	}
	combSeen := map[string]bool{}
	d.Insts(func(in *Inst) {
		ji := jsonInst{
			Name: in.Name, Kind: int(in.Kind), X: in.Pos.X, Y: in.Pos.Y,
			Fixed: in.Fixed, SizeOnly: in.SizeOnly,
			Gate: in.GateGroup, ScanPart: in.ScanPartition,
		}
		switch {
		case in.RegCell != nil:
			ji.Cell = in.RegCell.Name
		case in.Comb != nil:
			ji.Comb = in.Comb.Name
			if !combSeen[in.Comb.Name] {
				combSeen[in.Comb.Name] = true
				jd.Combs = append(jd.Combs, in.Comb)
			}
		case in.Kind == KindPort:
			if p := d.OutPin(in); p != nil {
				ji.IsInput = true
			}
		}
		jd.Insts = append(jd.Insts, ji)
	})
	d.Nets(func(n *Net) {
		jn := jsonNet{Name: n.Name, IsClock: n.IsClock}
		if n.Driver != NoID {
			jn.Driver = d.pinRef(n.Driver)
		}
		for _, s := range n.Sinks {
			jn.Sinks = append(jn.Sinks, *d.pinRef(s))
		}
		jd.Nets = append(jd.Nets, jn)
	})
	enc := json.NewEncoder(w)
	return enc.Encode(jd)
}

func (d *Design) pinRef(id PinID) *jsonPinRef {
	p := d.Pin(id)
	in := d.insts[p.Inst]
	return &jsonPinRef{Inst: in.Name, Kind: int(p.Kind), Bit: p.Bit}
}

// ReadJSON reconstructs a design. The library must contain every register
// cell the design references. It accepts exactly the documents
// encoding/json's streaming decoder accepts for this format (see
// decodeDesign), then rejects, with an error, any connectivity a design
// cannot have: a reference to a missing instance or pin, a pin listed
// twice, a driver that is an input pin, a sink that is an output pin, a
// second driver.
func ReadJSON(r io.Reader, library *lib.Library) (*Design, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}
	jd, err := decodeDesign(data)
	if err != nil {
		return nil, fmt.Errorf("netlist: decode: %w", err)
	}
	d, err := buildDesign(jd, library)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("netlist: loaded design invalid: %w", err)
	}
	return d, nil
}

// readAll reads r to its end, sizing the buffer once when r knows its
// length (bytes.Reader, strings.Reader, bytes.Buffer) instead of growing it
// through a series of copies.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// maxCombInputs bounds a comb spec's input count: far above any real cell,
// low enough that a corrupt document cannot make the loader allocate
// without bound.
const maxCombInputs = 64

// buildDesign constructs the design in bulk: the instance, pin, net and
// name tables are sized up front, pins are attached without per-pin edit
// bookkeeping, and the whole load is recorded as one edit at the end.
func buildDesign(jd *jsonDesign, library *lib.Library) (*Design, error) {
	core := geom.Rect{
		Lo: geom.Point{X: jd.Core[0], Y: jd.Core[1]},
		Hi: geom.Point{X: jd.Core[2], Y: jd.Core[3]},
	}
	d := NewDesign(jd.Name, core, library)
	d.SiteW = jd.SiteW
	d.RowH = jd.RowH
	d.Timing = jd.Timing

	combByName := make(map[string]*CombSpec, len(jd.Combs))
	for _, c := range jd.Combs {
		if c == nil {
			return nil, fmt.Errorf("netlist: null comb spec")
		}
		if c.NumInputs < 0 || c.NumInputs > maxCombInputs {
			return nil, fmt.Errorf("netlist: comb spec %q has %d inputs", c.Name, c.NumInputs)
		}
		combByName[c.Name] = c
	}
	cellByName := map[string]*lib.Cell{}
	d.insts = make([]*Inst, 0, len(jd.Insts))
	d.nets = make([]*Net, 0, len(jd.Nets))
	d.nameToInst = make(map[string]InstID, len(jd.Insts))
	refs := 0 // a valid document references each connected pin once
	for i := range jd.Nets {
		refs += len(jd.Nets[i].Sinks) + 1
	}
	d.pins = make([]*Pin, 0, refs)
	for i := range jd.Insts {
		ji := &jd.Insts[i]
		kind := InstKind(ji.Kind)
		var cell *lib.Cell
		var spec *CombSpec
		switch kind {
		case KindReg:
			cell = cellByName[ji.Cell]
			if cell == nil {
				if cell = d.Lib.CellByName(ji.Cell); cell == nil {
					return nil, fmt.Errorf("netlist: unknown register cell %q", ji.Cell)
				}
				cellByName[ji.Cell] = cell
			}
		case KindComb, KindClockBuf, KindClockGate:
			if spec = combByName[ji.Comb]; spec == nil {
				return nil, fmt.Errorf("netlist: unknown comb spec %q", ji.Comb)
			}
		case KindPort:
		default:
			return nil, fmt.Errorf("netlist: unknown instance kind %d", ji.Kind)
		}
		in, err := d.addInst(ji.Name, kind, geom.Point{X: ji.X, Y: ji.Y})
		if err != nil {
			return nil, err
		}
		switch {
		case cell != nil:
			in.RegCell = cell
			d.addRegPins(in, cell)
		case spec != nil:
			in.Comb = spec
			d.addCombPins(in, spec)
		default:
			d.addPortPin(in, ji.IsInput)
		}
		in.Fixed = ji.Fixed
		in.SizeOnly = ji.SizeOnly
		in.GateGroup = ji.Gate
		in.ScanPartition = ji.ScanPart
	}
	for i := range jd.Nets {
		jn := &jd.Nets[i]
		n := d.AddNet(jn.Name, jn.IsClock)
		n.Sinks = make([]PinID, 0, len(jn.Sinks))
		if jn.Driver != nil {
			if err := d.loadPin(n, jn.Driver, DirOut); err != nil {
				return nil, err
			}
		}
		for k := range jn.Sinks {
			if err := d.loadPin(n, &jn.Sinks[k], DirIn); err != nil {
				return nil, err
			}
		}
	}
	d.noteLoad()
	return d, nil
}

// loadPin resolves a pin reference of net n and attaches the pin in the
// role the document gives it, rejecting what Connect would panic on or
// silently rewire.
func (d *Design) loadPin(n *Net, ref *jsonPinRef, role PinDir) error {
	id, ok := d.nameToInst[ref.Inst]
	if !ok {
		return fmt.Errorf("netlist: net %q references unknown instance %q", n.Name, ref.Inst)
	}
	p := d.FindPin(d.insts[id], PinKind(ref.Kind), ref.Bit)
	switch {
	case p == nil:
		return fmt.Errorf("netlist: net %q: no pin %d/%d on %q", n.Name, ref.Kind, ref.Bit, ref.Inst)
	case p.Net != NoID:
		return fmt.Errorf("netlist: net %q: pin %d/%d on %q is already on net %q",
			n.Name, ref.Kind, ref.Bit, ref.Inst, d.nets[p.Net].Name)
	case p.Dir == DirOut && n.Driver != NoID:
		return fmt.Errorf("netlist: net %q has two drivers", n.Name)
	case p.Dir != role && role == DirOut:
		return fmt.Errorf("netlist: net %q: driver pin %d/%d on %q is an input", n.Name, ref.Kind, ref.Bit, ref.Inst)
	case p.Dir != role:
		return fmt.Errorf("netlist: net %q: sink pin %d/%d on %q is an output", n.Name, ref.Kind, ref.Bit, ref.Inst)
	}
	d.attach(p, n)
	return nil
}
