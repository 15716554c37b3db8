package stats

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary serialization of Discrete distributions, used to persist seed
// analyses so the generation stage can run without re-analyzing the trace.
//
//	count   uint32 (number of distinct values)
//	mean    float64
//	values  count * int64
//	cum     count * float64
//	pmf     count * float64 (stored exactly so the rebuilt alias tables
//	        sample bit-identically to the original)

// WriteTo serializes the distribution. It implements io.WriterTo.
func (d *Discrete) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		return nil
	}
	if err := write(uint32(len(d.values))); err != nil {
		return n, err
	}
	if err := write(d.mean); err != nil {
		return n, err
	}
	if err := write(d.values); err != nil {
		return n, err
	}
	if err := write(d.cum); err != nil {
		return n, err
	}
	if err := write(d.pmf()); err != nil {
		return n, err
	}
	n = int64(4 + 8 + 24*len(d.values))
	return n, bw.Flush()
}

// ErrCorrupt tags every serialized distribution ReadDiscrete rejects: input
// that ends early or whose values break the distribution's invariants.
var ErrCorrupt = errors.New("stats: corrupt serialized distribution")

// readChunk is how many values ReadDiscrete reads per step, so a corrupt
// count can only make it allocate in proportion to the bytes that arrive.
const readChunk = 4096

// ReadDiscrete deserializes a distribution written by WriteTo and rebuilds
// its sampling tables. The reconstructed distribution samples identically
// (same values, same probabilities, same alias layout).
func ReadDiscrete(r io.Reader) (*Discrete, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: reading size: %w", ErrCorrupt, err)
	}
	if count == 0 || count > 1<<24 {
		return nil, fmt.Errorf("%w: implausible size %d", ErrCorrupt, count)
	}
	d := &Discrete{}
	if err := binary.Read(r, binary.LittleEndian, &d.mean); err != nil {
		return nil, fmt.Errorf("%w: reading mean: %w", ErrCorrupt, err)
	}
	var err error
	if d.values, err = readWords[int64](r, int(count), "values"); err != nil {
		return nil, err
	}
	if d.cum, err = readWords[float64](r, int(count), "cdf"); err != nil {
		return nil, err
	}
	// Validate monotonicity and support ordering before trusting the data.
	prevCum := 0.0
	for i := range d.values {
		if i > 0 && d.values[i] <= d.values[i-1] {
			return nil, fmt.Errorf("%w: support not ascending", ErrCorrupt)
		}
		if d.cum[i] < prevCum || d.cum[i] > 1+1e-9 || math.IsNaN(d.cum[i]) {
			return nil, fmt.Errorf("%w: CDF not monotone in [0,1]", ErrCorrupt)
		}
		prevCum = d.cum[i]
	}
	if math.Abs(d.cum[count-1]-1) > 1e-9 {
		return nil, fmt.Errorf("%w: CDF does not reach 1", ErrCorrupt)
	}
	d.cum[count-1] = 1
	pmf, err := readWords[float64](r, int(count), "pmf")
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, p := range pmf {
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("%w: pmf invalid", ErrCorrupt)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("%w: pmf does not sum to 1", ErrCorrupt)
	}
	d.buildAliasFromPMF(pmf)
	return d, nil
}

// readWords reads n little-endian 8-byte words, readChunk at a time, growing
// the slice only as the words arrive.
func readWords[T int64 | float64](r io.Reader, n int, what string) ([]T, error) {
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n {
		k := min(n-len(out), readChunk)
		out = slices.Grow(out, k)[:len(out)+k]
		if err := binary.Read(r, binary.LittleEndian, out[len(out)-k:]); err != nil {
			return nil, fmt.Errorf("%w: reading %s (%d of %d): %w", ErrCorrupt, what, len(out)-k, n, err)
		}
	}
	return out, nil
}
