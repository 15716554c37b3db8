package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"csb/internal/graph"
	"csb/internal/stats"
)

// Binary seed-analysis container ("CSBA"): persists a complete analyzed
// seed — the property graph plus every pre-computed distribution — so the
// generation stage can run repeatedly without re-analyzing the trace
// (separating the Figure 1 pipeline from the Figure 2/3 generators).
//
//	magic    [4]byte "CSBA"
//	version  uint32 (1)
//	graph    CSBG container (graph.Write)
//	inDeg    Discrete
//	outDeg   Discrete
//	props    PropertyModel (see writePropertyModel)

var seedMagic = [4]byte{'C', 'S', 'B', 'A'}

const seedFormatVersion = 1

// Write serializes the analyzed seed.
func (s *Seed) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(seedMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(seedFormatVersion)); err != nil {
		return err
	}
	if err := s.Graph.Write(bw); err != nil {
		return err
	}
	if _, err := s.InDegree.WriteTo(bw); err != nil {
		return err
	}
	if _, err := s.OutDegree.WriteTo(bw); err != nil {
		return err
	}
	if err := writePropertyModel(bw, s.Props); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSeed deserializes a seed written by Seed.Write.
func ReadSeed(r io.Reader) (*Seed, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("core: reading seed magic: %w", err)
	}
	if m != seedMagic {
		return nil, fmt.Errorf("core: bad seed magic %q", m[:])
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != seedFormatVersion {
		return nil, fmt.Errorf("core: unsupported seed version %d", version)
	}
	g, err := graph.Read(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading seed graph: %w", err)
	}
	inDeg, err := stats.ReadDiscrete(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading in-degree distribution: %w", err)
	}
	outDeg, err := stats.ReadDiscrete(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading out-degree distribution: %w", err)
	}
	props, err := readPropertyModel(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading property model: %w", err)
	}
	return &Seed{Graph: g, InDegree: inDeg, OutDegree: outDeg, Props: props}, nil
}

// attrModel serialization order.
func (m *attrModel) dists() []**stats.Discrete {
	return []**stats.Discrete{
		&m.duration, &m.outBytes, &m.outPkts, &m.inPkts,
		&m.srcPort, &m.dstPort, &m.protoState,
	}
}

func writeAttrModel(w io.Writer, m *attrModel) error {
	for _, d := range m.dists() {
		if _, err := (*d).WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

func readAttrModel(r io.Reader) (*attrModel, error) {
	m := &attrModel{}
	for _, d := range m.dists() {
		dd, err := stats.ReadDiscrete(r)
		if err != nil {
			return nil, err
		}
		*d = dd
	}
	return m, nil
}

// writePropertyModel serializes the conditional attribute model:
//
//	inBytes      Discrete
//	all          attrModel (7 Discretes)
//	bucketCount  uint32
//	per bucket   (ascending): bucketID int32, attrModel
func writePropertyModel(w io.Writer, m *PropertyModel) error {
	if _, err := m.inBytes.WriteTo(w); err != nil {
		return err
	}
	if err := writeAttrModel(w, m.all); err != nil {
		return err
	}
	ids := make([]int, 0, len(m.buckets))
	for id := range m.buckets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		if err := binary.Write(w, binary.LittleEndian, int32(id)); err != nil {
			return err
		}
		if err := writeAttrModel(w, m.buckets[id]); err != nil {
			return err
		}
	}
	return nil
}

func readPropertyModel(r io.Reader) (*PropertyModel, error) {
	m := &PropertyModel{buckets: make(map[int]*attrModel)}
	var err error
	if m.inBytes, err = stats.ReadDiscrete(r); err != nil {
		return nil, err
	}
	if m.all, err = readAttrModel(r); err != nil {
		return nil, err
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count > 1<<16 {
		return nil, fmt.Errorf("core: implausible bucket count %d", count)
	}
	for i := uint32(0); i < count; i++ {
		var id int32
		if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
			return nil, err
		}
		am, err := readAttrModel(r)
		if err != nil {
			return nil, err
		}
		m.buckets[int(id)] = am
	}
	m.indexBuckets()
	return m, nil
}
