package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/tree"
	"repro/internal/treec"
)

// Model file format, version 2. The compiled interpolation tables are
// the file: Write streams them as they sit in memory and Read builds
// the compiled forests straight from them, so neither side walks
// pointer trees or JSON-encodes 10^5 nodes.
//
//	magic    "RPMODEL\n"
//	version  uint32, 2
//	header   section: JSON of the model's configuration, parameter
//	         names, metadata (provenance, calibration), centroids,
//	         cluster models, counts and each forest's shape
//	forests  one section per small scale, in Cfg.SmallScales order
//
// A section is a uint64 payload length, the payload, and the payload's
// CRC-32C. Integers are little-endian. A forest section holds its
// treec.Ensemble tables: Roots (int32 per tree), then Feature (int32
// per node, -1 at leaves), then Thresh (float64 per node: the split
// threshold, or the leaf value at a leaf). Nodes are breadth-first per
// tree, so the left child of a tree's k-th internal node sits at
// root+2k+1 and the right one next to it: the child table is implied
// by the layout and is not stored. Encoding is byte-deterministic.
//
// Format v1 (one JSON document over pointer trees) is not read: Read
// names it and asks for a refit, rather than keeping a second decoder.
// Files keep their .json names (pipeline generations are
// app-gen000042.json) because tooling opens those paths.
const (
	modelMagic       = "RPMODEL\n"
	modelFileVersion = 2
)

// fileHeader is the header section: every model field but the forests,
// plus the shape of each forest section.
type fileHeader struct {
	*TwoLevelModel
	// Forests is each interpolation forest's tree and node count,
	// aligned with Cfg.SmallScales.
	Forests []forestShape
}

type forestShape struct {
	Trees int `json:"trees"`
	Nodes int `json:"nodes"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write serializes the model in format v2.
func (m *TwoLevelModel) Write(w io.Writer) error {
	hdr := fileHeader{TwoLevelModel: m, Forests: make([]forestShape, len(m.compiled))}
	size := 0
	for i, f := range m.compiled {
		hdr.Forests[i] = forestShape{Trees: len(f.E.Roots), Nodes: len(f.E.Feature)}
		size = max(size, forestSectionSize(hdr.Forests[i]))
	}
	js, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	var pre [12]byte
	copy(pre[:], modelMagic)
	binary.LittleEndian.PutUint32(pre[8:], modelFileVersion)
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if err := writeSection(w, js); err != nil {
		return err
	}
	buf := make([]byte, 0, size)
	for _, f := range m.compiled {
		buf = buf[:0]
		for _, v := range f.E.Roots {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		for _, v := range f.E.Feature {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		for _, v := range f.E.Thresh {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if err := writeSection(w, buf); err != nil {
			return err
		}
	}
	return nil
}

// forestSectionSize is the payload size of a forest section of shape s.
func forestSectionSize(s forestShape) int { return 4*s.Trees + 12*s.Nodes }

// writeSection frames one section: length, payload, CRC-32C.
func writeSection(w io.Writer, payload []byte) error {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(payload)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	_, err := w.Write(sum[:])
	return err
}

// Read deserializes a model previously written with Write. Whitespace
// may follow the last section; any other trailing byte is an error.
func Read(r io.Reader) (*TwoLevelModel, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	return decode(data)
}

// decode parses and validates a whole model file. Every length it
// reads is checked against the bytes present before anything is
// allocated from it, so what it allocates is a small multiple of the
// input's size whatever the input declares.
func decode(data []byte) (*TwoLevelModel, error) {
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '{' {
		return nil, fmt.Errorf("core: model file starts with '{' like format v1 (JSON forests), which this build does not read; refit the model (cmd/train, or a pipeline cycle) to write format v%d", modelFileVersion)
	}
	if len(data) < len(modelMagic)+4 || string(data[:len(modelMagic)]) != modelMagic {
		return nil, fmt.Errorf("core: not a model file (no %q magic)", modelMagic)
	}
	if v := binary.LittleEndian.Uint32(data[len(modelMagic):]); v != modelFileVersion {
		return nil, fmt.Errorf("core: model file version %d, this build reads %d", v, modelFileVersion)
	}
	rest := data[len(modelMagic)+4:]
	raw, rest, err := nextSection(rest, "header")
	if err != nil {
		return nil, err
	}
	m := &TwoLevelModel{}
	hdr := fileHeader{TwoLevelModel: m}
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return nil, fmt.Errorf("core: decoding model header: %w", err)
	}
	if err := m.validateLoaded(); err != nil {
		return nil, err
	}
	if len(hdr.Forests) != len(m.Cfg.SmallScales) {
		return nil, fmt.Errorf("core: %d interpolation models for %d small scales", len(hdr.Forests), len(m.Cfg.SmallScales))
	}
	m.Interp = make([]*forest.Forest, len(hdr.Forests))
	m.compiled = make([]*treec.Forest, len(hdr.Forests))
	for i, shape := range hdr.Forests {
		var sec []byte
		if sec, rest, err = nextSection(rest, fmt.Sprintf("forest %d", i)); err != nil {
			return nil, err
		}
		if m.compiled[i], m.Interp[i], err = decodeForest(sec, shape, len(m.ParamNames)); err != nil {
			return nil, fmt.Errorf("core: interpolation model %d: %w", i, err)
		}
	}
	if n := len(bytes.TrimLeft(rest, " \t\r\n")); n > 0 {
		return nil, fmt.Errorf("core: %d bytes after the last section", n)
	}
	return m, nil
}

// nextSection splits one section off data and verifies its checksum.
func nextSection(data []byte, name string) (payload, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("core: model file ends before the %s section", name)
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if n > uint64(len(data)) || uint64(len(data))-n < 4 {
		return nil, nil, fmt.Errorf("core: %s section declares %d bytes, %d remain in the file", name, n, len(data))
	}
	payload = data[:n]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[n:]); got != want {
		return nil, nil, fmt.Errorf("core: %s section checksum %08x, stored %08x", name, got, want)
	}
	return payload, data[n+4:], nil
}

// decodeForest builds one interpolation forest from its section: the
// compiled tables, and the pointer trees they encode. One linear pass
// per tree validates the layout, and a tree that passes is a proper
// binary tree: every node but the root is a child of an earlier
// internal node (so traversal only moves forward and ends at a leaf),
// the node count is 2·internal+1 (so every implied child exists and
// every node is reached), each split's feature is in range, and every
// threshold and leaf value is finite.
func decodeForest(sec []byte, s forestShape, features int) (*treec.Forest, *forest.Forest, error) {
	if s.Trees < 1 {
		return nil, nil, fmt.Errorf("empty forest: %d trees", s.Trees)
	}
	if s.Trees > len(sec)/4 || s.Nodes > len(sec)/12 || s.Nodes < s.Trees || forestSectionSize(s) != len(sec) {
		return nil, nil, fmt.Errorf("%d trees and %d nodes do not fill a %d-byte section", s.Trees, s.Nodes, len(sec))
	}
	if s.Nodes > math.MaxInt32/2 {
		return nil, nil, fmt.Errorf("%d nodes overflow the tables' int32 offsets", s.Nodes)
	}
	e := treec.Ensemble{
		Roots:    make([]int32, s.Trees),
		Feature:  make([]int32, s.Nodes),
		Child:    make([]int32, s.Nodes),
		Thresh:   make([]float64, s.Nodes),
		Features: features,
	}
	for i := range e.Roots {
		e.Roots[i] = int32(binary.LittleEndian.Uint32(sec[4*i:]))
	}
	sec = sec[4*s.Trees:]
	for i := range e.Feature {
		e.Feature[i] = int32(binary.LittleEndian.Uint32(sec[4*i:]))
	}
	sec = sec[4*s.Nodes:]
	for i := range e.Thresh {
		e.Thresh[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec[8*i:]))
	}
	nodes := make([]tree.Node, s.Nodes)
	f := &forest.Forest{Trees: make([]*tree.Tree, s.Trees), Features: features}
	for t, root := range e.Roots {
		end := int32(s.Nodes)
		if t+1 < s.Trees {
			end = e.Roots[t+1]
		}
		if t == 0 && root != 0 {
			return nil, nil, fmt.Errorf("tree 0 starts at node %d, not 0", root)
		}
		if root < 0 || end <= root || end > int32(s.Nodes) {
			return nil, nil, fmt.Errorf("tree %d spans nodes [%d, %d) of %d", t, root, end, s.Nodes)
		}
		if err := linkTree(&e, nodes, root, end); err != nil {
			return nil, nil, fmt.Errorf("tree %d: %w", t, err)
		}
		f.Trees[t] = &tree.Tree{Nodes: nodes[root:end:end], Features: features}
	}
	return &treec.Forest{E: e}, f, nil
}

// linkTree validates the tree stored at nodes [root, end) of e, fills in
// its child offsets, and writes its pointer form into nodes[root:end]
// (child indices relative to root, as tree.Tree stores them).
func linkTree(e *treec.Ensemble, nodes []tree.Node, root, end int32) error {
	internal := int32(0)
	for j := root; j < end; j++ {
		if p := j - root; p > 2*internal {
			return fmt.Errorf("node %d has no parent before it (%d internal nodes precede it), so it is unreachable from the root", p, internal)
		}
		f, v := e.Feature[j], e.Thresh[j]
		if f < -1 || f >= int32(e.Features) {
			return fmt.Errorf("node %d splits on feature %d, outside [0, %d)", j-root, f, e.Features)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("node %d holds non-finite value %v", j-root, v)
		}
		if f < 0 {
			nodes[j] = tree.Node{Feature: -1, Value: v}
			continue
		}
		left := 2*internal + 1
		e.Child[j] = root + left
		nodes[j] = tree.Node{Feature: int(f), Threshold: v, Left: left, Right: left + 1}
		internal++
	}
	// A node past position 2·internal fails the parent check above, so
	// only a short tree is left to catch.
	if size := end - root; size < 2*internal+1 {
		return fmt.Errorf("%d nodes for %d internal nodes: a child lies past the tree's end", size, internal)
	}
	return nil
}

// Save writes the model to a file path atomically: the file is written
// to a temporary file in the same directory, synced, and renamed over
// the destination, so a concurrent reader (e.g. a serving process
// hot-reloading on SIGHUP) can never observe a torn or partial file.
func (m *TwoLevelModel) Save(path string) error {
	_, err := m.SaveSHA256(path)
	return err
}

// SaveSHA256 is Save that also returns the SHA-256 of the bytes it
// wrote, hashed as they stream to the file rather than read back.
func (m *TwoLevelModel) SaveSHA256(path string) (sum [sha256.Size]byte, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return sum, err
	}
	defer func() {
		if tmp != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	h := sha256.New()
	if err := m.Write(io.MultiWriter(tmp, h)); err != nil {
		return sum, err
	}
	if err := tmp.Sync(); err != nil {
		return sum, err
	}
	// CreateTemp uses 0600; match the permissions os.Create would give.
	if err := tmp.Chmod(0o644); err != nil {
		return sum, err
	}
	if err := tmp.Close(); err != nil {
		return sum, err
	}
	name := tmp.Name()
	tmp = nil // the deferred cleanup no longer owns the file
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return sum, err
	}
	h.Sum(sum[:0])
	return sum, nil
}

// Load reads a model from a file path.
func Load(path string) (*TwoLevelModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// validateLoaded sanity-checks structural invariants after deserialization
// so a corrupt file fails at load time, not at first prediction.
func (m *TwoLevelModel) validateLoaded() error {
	if err := m.Cfg.check(); err != nil {
		return err
	}
	if m.Cfg.Mode == ModeBasis && (len(m.Cfg.Basis) == 0 || m.Cfg.MaxTerms < 1 || m.Cfg.MaxTerms >= len(m.Cfg.SmallScales)) {
		return fmt.Errorf("core: basis model with %d terms and MaxTerms %d for %d small scales",
			len(m.Cfg.Basis), m.Cfg.MaxTerms, len(m.Cfg.SmallScales))
	}
	if len(m.ClusterModels) == 0 {
		return fmt.Errorf("core: no cluster models")
	}
	for i, cm := range m.ClusterModels {
		switch m.Cfg.Mode {
		case ModeAnchored:
			if cm.Multi == nil {
				return fmt.Errorf(`core: anchored cluster %d has no "multi" model (per-scale "single" models are no longer read; refit the model)`, i)
			}
			if cm.Multi.Tasks != len(m.Cfg.LargeScales) {
				return fmt.Errorf("core: anchored cluster %d has %d tasks for %d large scales",
					i, cm.Multi.Tasks, len(m.Cfg.LargeScales))
			}
			if err := checkDense(fmt.Sprintf("anchored cluster %d coef", i), cm.Multi.Coef,
				len(m.Cfg.SmallScales), len(m.Cfg.LargeScales)); err != nil {
				return err
			}
			if len(cm.Multi.Intercept) != cm.Multi.Tasks {
				return fmt.Errorf("core: anchored cluster %d has %d intercepts for %d tasks",
					i, len(cm.Multi.Intercept), cm.Multi.Tasks)
			}
			if g := cm.Multi.Gap; math.IsNaN(g) || math.IsInf(g, 0) || g < 0 {
				return fmt.Errorf("core: anchored cluster %d lasso gap %v is not a finite non-negative number", i, g)
			}
			if cm.Multi.Iterations < 0 || cm.Multi.Sweeps < 0 {
				return fmt.Errorf("core: anchored cluster %d lasso iterations %d, sweeps %d; both must be non-negative",
					i, cm.Multi.Iterations, cm.Multi.Sweeps)
			}
		case ModeBasis:
			for _, j := range cm.Support {
				if j < 0 || j >= len(m.Cfg.Basis) {
					return fmt.Errorf("core: cluster %d support index %d outside basis of %d terms",
						i, j, len(m.Cfg.Basis))
				}
			}
			if !m.Cfg.SingleTask && cm.Support == nil {
				return fmt.Errorf("core: basis cluster %d has no support but model is not single-task", i)
			}
		default:
			return fmt.Errorf("core: loaded model has unresolved mode %q", m.Cfg.Mode)
		}
	}
	if m.Centroids != nil {
		if err := checkDense("centroids", m.Centroids, len(m.ClusterModels), len(m.Cfg.SmallScales)); err != nil {
			return err
		}
	}
	if m.Centroids == nil && len(m.ClusterModels) != 1 {
		return fmt.Errorf("core: multiple cluster models without centroids")
	}
	if err := m.Meta.Calibration.Validate(); err != nil {
		return err
	}
	return nil
}

// checkDense reports whether a decoded matrix has the rows × cols shape
// its reader indexes it by, and a data slice of exactly that length:
// Dense.Row slices by Cols, so a short slice would read past its end
// (into capacity, silently) and a wrong Cols would misalign every row.
func checkDense(name string, d *mat.Dense, rows, cols int) error {
	if d == nil {
		return fmt.Errorf("core: %s matrix is missing", name)
	}
	if d.Rows != rows || d.Cols != cols {
		return fmt.Errorf("core: %s matrix is %dx%d, want %dx%d", name, d.Rows, d.Cols, rows, cols)
	}
	if len(d.Data) != rows*cols {
		return fmt.Errorf("core: %s matrix holds %d values for %dx%d", name, len(d.Data), rows, cols)
	}
	return nil
}
