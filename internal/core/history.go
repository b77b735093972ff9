package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"swcam/internal/mesh"
)

// History output: regular lat-lon snapshots of named model fields, the
// "h0 history file" role in CAM. The sampler maps each lat-lon point to
// its nearest GLL node once at setup; frames are then cheap. The file
// format is self-describing (header + field names + frames) and has a
// matching reader.

// Sampler maps a regular lat-lon grid onto the cubed-sphere GLL nodes.
type Sampler struct {
	Nlon, Nlat int
	elem       []int32 // per grid point: element id
	node       []int32 // per grid point: node index within the element
}

// NewSampler builds the nearest-node mapping for an nlon x nlat grid
// (cell-centred: lon_i = (i+0.5)*2pi/nlon, lat_j from -pi/2 to pi/2),
// the first strict minimum of mesh.GreatCircleDist over elements then
// nodes, as mesh.NodeSearch finds it.
func NewSampler(m *mesh.Mesh, nlon, nlat int) *Sampler {
	if nlon < 1 || nlat < 1 {
		panic(fmt.Sprintf("core: bad sampler grid %dx%d", nlon, nlat))
	}
	s := &Sampler{
		Nlon: nlon, Nlat: nlat,
		elem: make([]int32, nlon*nlat),
		node: make([]int32, nlon*nlat),
	}
	search := mesh.NewNodeSearch(m)
	// Each point seeds its search with the previous point's answer; the
	// last point of a row neighbours the first of the next across the
	// 0/2pi seam.
	at := mesh.NodeRef{Elem: -1}
	for j := 0; j < nlat; j++ {
		lat := -math.Pi/2 + (float64(j)+0.5)*math.Pi/float64(nlat)
		for i := 0; i < nlon; i++ {
			lon := (float64(i) + 0.5) * 2 * math.Pi / float64(nlon)
			p := mesh.Vec3{
				math.Cos(lat) * math.Cos(lon),
				math.Cos(lat) * math.Sin(lon),
				math.Sin(lat),
			}
			at = search.Nearest(p, at)
			s.elem[j*nlon+i] = int32(at.Elem)
			s.node[j*nlon+i] = int32(at.Idx)
		}
	}
	return s
}

// Sample extracts one level of a per-element field onto the lat-lon grid.
func (s *Sampler) Sample(field [][]float64, level, npsq int, out []float64) {
	if len(out) != s.Nlon*s.Nlat {
		panic("core: sample buffer size mismatch")
	}
	for g := range out {
		out[g] = field[s.elem[g]][level*npsq+int(s.node[g])]
	}
}

// HistoryWriter streams frames of named fields to w.
type HistoryWriter struct {
	w       *bufio.Writer
	sampler *Sampler
	fields  []string
	frames  int
}

const historyMagic = 0x53574831 // "SWH1"

// NewHistoryWriter writes the header (grid dims + field names) and
// returns a writer for subsequent frames.
func NewHistoryWriter(w io.Writer, sampler *Sampler, fields []string) (*HistoryWriter, error) {
	hw := &HistoryWriter{w: bufio.NewWriter(w), sampler: sampler, fields: fields}
	hdr := []int64{historyMagic, int64(sampler.Nlon), int64(sampler.Nlat), int64(len(fields))}
	if err := binary.Write(hw.w, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	for _, f := range fields {
		name := make([]byte, 16)
		copy(name, f)
		if _, err := hw.w.Write(name); err != nil {
			return nil, err
		}
	}
	return hw, nil
}

// WriteFrame samples and writes one snapshot: the given level of each
// field, stamped with the simulated hours.
func (hw *HistoryWriter) WriteFrame(hours float64, level, npsq int, fieldData ...[][]float64) error {
	if len(fieldData) != len(hw.fields) {
		return fmt.Errorf("core: frame has %d fields, header declared %d", len(fieldData), len(hw.fields))
	}
	if err := binary.Write(hw.w, binary.LittleEndian, hours); err != nil {
		return err
	}
	buf := make([]float64, hw.sampler.Nlon*hw.sampler.Nlat)
	for _, f := range fieldData {
		hw.sampler.Sample(f, level, npsq, buf)
		if err := binary.Write(hw.w, binary.LittleEndian, buf); err != nil {
			return err
		}
	}
	hw.frames++
	return nil
}

// Close flushes buffered frames.
func (hw *HistoryWriter) Close() error { return hw.w.Flush() }

// HistoryFrame is one decoded snapshot.
type HistoryFrame struct {
	Hours float64
	Data  map[string][]float64 // field name -> nlon*nlat values
}

// ReadHistory decodes a complete history stream.
func ReadHistory(r io.Reader) (nlon, nlat int, frames []HistoryFrame, err error) {
	br := bufio.NewReader(r)
	hdr := make([]int64, 4)
	if err = binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return 0, 0, nil, fmt.Errorf("core: history header: %w", err)
	}
	if hdr[0] != historyMagic {
		return 0, 0, nil, fmt.Errorf("core: not a history file (magic %#x)", hdr[0])
	}
	nlon, nlat = int(hdr[1]), int(hdr[2])
	nf := int(hdr[3])
	// Bound dims before allocating frame buffers (hostile-input safety,
	// like the checkpoint reader).
	if nlon < 1 || nlon > 1<<16 || nlat < 1 || nlat > 1<<15 || nf < 1 || nf > 1024 {
		return 0, 0, nil, fmt.Errorf("core: corrupt history dims %v", hdr)
	}
	if nlon*nlat > 1<<26 {
		return 0, 0, nil, fmt.Errorf("core: history grid too large (%dx%d)", nlon, nlat)
	}
	names := make([]string, nf)
	for i := range names {
		raw := make([]byte, 16)
		if _, err = io.ReadFull(br, raw); err != nil {
			return 0, 0, nil, err
		}
		end := 0
		for end < len(raw) && raw[end] != 0 {
			end++
		}
		names[i] = string(raw[:end])
	}
	for {
		var hours float64
		if err = binary.Read(br, binary.LittleEndian, &hours); err == io.EOF {
			return nlon, nlat, frames, nil
		} else if err != nil {
			return 0, 0, nil, fmt.Errorf("core: history frame: %w", err)
		}
		fr := HistoryFrame{Hours: hours, Data: map[string][]float64{}}
		for _, name := range names {
			vals := make([]float64, nlon*nlat)
			if err = binary.Read(br, binary.LittleEndian, vals); err != nil {
				return 0, 0, nil, fmt.Errorf("core: history frame %q: %w", name, err)
			}
			fr.Data[name] = vals
		}
		frames = append(frames, fr)
	}
}

// WriteHistoryFrameForModel is a convenience: sample the model's surface
// level of T, U, V (and qv if present) into an open writer.
func WriteHistoryFrameForModel(hw *HistoryWriter, m *Model) error {
	npsq := m.Solver.Cfg.Np * m.Solver.Cfg.Np
	level := m.Solver.Cfg.Nlev - 1
	fields := [][][]float64{m.State.T, m.State.U, m.State.V}
	if m.Solver.Cfg.Qsize > 0 {
		qv := make([][]float64, m.State.NElem())
		for ei := range qv {
			qv[ei] = m.State.QdpAt(ei, 0)
		}
		fields = append(fields, qv)
	}
	return hw.WriteFrame(m.SimHours(), level, npsq, fields...)
}
