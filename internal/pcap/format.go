// Package pcap implements the libpcap capture file format, Ethernet/IPv4/
// TCP/UDP/ICMP header codecs, and a synthetic network-trace generator.
//
// The paper seeds its generators with a real PCAP trace (the Swedish
// Department of Defense SMIA 2011 capture) analyzed by Bro IDS. That trace
// is not redistributable, so this package provides the substitute: Synthesize
// produces a capture with the same statistical structure (scale-free host
// popularity, heavy-tailed flow sizes, realistic TCP session lifecycles)
// written in genuine libpcap format, exercising the identical downstream
// code path (packet parsing -> flow assembly -> property graph).
package pcap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Libpcap file format constants.
const (
	// MagicMicros is the classic little-endian microsecond-resolution magic.
	MagicMicros = 0xa1b2c3d4
	// VersionMajor and VersionMinor identify format version 2.4.
	VersionMajor = 2
	VersionMinor = 4
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet = 1
	// DefaultSnapLen is the capture length offered by Writer.
	DefaultSnapLen = 65535
)

// Record is one captured packet: a timestamp, the bytes actually captured
// (possibly truncated to the snap length) and the original wire length.
type Record struct {
	TsMicros int64  // capture time, microseconds since the Unix epoch
	OrigLen  uint32 // length of the packet on the wire
	Data     []byte // captured bytes (len(Data) <= snaplen, <= OrigLen)
}

// Writer writes a libpcap capture file.
type Writer struct {
	w       *bufio.Writer
	snaplen uint32
	started bool
}

// NewWriter returns a Writer targeting w with the default snap length.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20), snaplen: DefaultSnapLen}
}

func (w *Writer) writeHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], VersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], VersionMinor)
	// thiszone (4 bytes) and sigfigs (4 bytes) are zero.
	binary.LittleEndian.PutUint32(hdr[16:20], w.snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	_, err := w.w.Write(hdr[:])
	return err
}

// WriteRecord appends one packet record.
func (w *Writer) WriteRecord(r Record) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	if uint32(len(r.Data)) > w.snaplen {
		return fmt.Errorf("pcap: captured length %d exceeds snaplen %d", len(r.Data), w.snaplen)
	}
	if r.OrigLen < uint32(len(r.Data)) {
		return fmt.Errorf("pcap: original length %d below captured length %d", r.OrigLen, len(r.Data))
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(r.TsMicros/1e6))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(r.TsMicros%1e6))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(r.Data)))
	binary.LittleEndian.PutUint32(hdr[12:16], r.OrigLen)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(r.Data)
	return err
}

// Flush writes any buffered data to the underlying writer. An empty capture
// still gets a valid global header.
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
}

// Reader reads a libpcap capture file.
type Reader struct {
	r       *bufio.Reader
	snaplen uint32
}

// NewReader parses the global header and returns a Reader. Only the
// little-endian microsecond Ethernet variant produced by Writer (and by
// tcpdump on little-endian hosts) is supported.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != MagicMicros {
		return nil, fmt.Errorf("pcap: unsupported magic %#x", m)
	}
	if maj := binary.LittleEndian.Uint16(hdr[4:6]); maj != VersionMajor {
		return nil, fmt.Errorf("pcap: unsupported major version %d", maj)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	snaplen := binary.LittleEndian.Uint32(hdr[16:20])
	// Bound the per-record allocation a corrupt header can demand; real
	// captures use snap lengths at or below 256 KiB.
	if snaplen > 1<<24 {
		return nil, fmt.Errorf("pcap: implausible snaplen %d", snaplen)
	}
	return &Reader{r: br, snaplen: snaplen}, nil
}

// ReadRecord reads the next packet record, returning io.EOF at clean end of
// file.
func (r *Reader) ReadRecord() (Record, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := binary.LittleEndian.Uint32(hdr[0:4])
	usec := binary.LittleEndian.Uint32(hdr[4:8])
	incl := binary.LittleEndian.Uint32(hdr[8:12])
	orig := binary.LittleEndian.Uint32(hdr[12:16])
	if incl > r.snaplen {
		return Record{}, fmt.Errorf("pcap: record length %d exceeds snaplen %d", incl, r.snaplen)
	}
	data := make([]byte, incl)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("pcap: reading %d record bytes: %w", incl, err)
	}
	return Record{TsMicros: int64(sec)*1e6 + int64(usec), OrigLen: orig, Data: data}, nil
}

// ReadAll reads every record in the capture.
func ReadAll(r io.Reader) ([]Record, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := pr.ReadRecord()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}
