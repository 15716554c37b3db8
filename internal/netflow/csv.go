package netflow

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"csb/internal/graph"
)

var csvHeader = []string{
	"start_us", "end_us", "src_ip", "dst_ip", "proto",
	"src_port", "dst_port", "out_bytes", "in_bytes",
	"out_pkts", "in_pkts", "state", "syn", "ack",
}

// CSVHeaderLine is the header row AppendCSV emits, exposed so chunked
// (distributed) encoders can write the header once and concatenate row
// chunks after it.
const CSVHeaderLine = "start_us,end_us,src_ip,dst_ip,proto,src_port,dst_port,out_bytes,in_bytes,out_pkts,in_pkts,state,syn,ack\n"

// CSVRowBytes is the capacity a CSV encoder reserves per row, a little over
// the mean row of a generated graph's flows (59–62 bytes from 10k to 500k
// edges), so a presized output does not regrow.
const CSVRowBytes = 68

// AppendCSVRow appends f's CSV row (with trailing newline) to dst. AppendCSV
// and the distributed row encoders share this single formatter, which is
// what keeps their bytes identical.
func AppendCSVRow(dst []byte, f *Flow) []byte {
	b := dst
	b = strconv.AppendInt(b, f.StartMicros, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.EndMicros, 10)
	b = append(b, ',')
	b = appendIPv4(b, f.SrcIP)
	b = append(b, ',')
	b = appendIPv4(b, f.DstIP)
	b = append(b, ',')
	b = append(b, f.Protocol.String()...)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(f.SrcPort), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(f.DstPort), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.OutBytes, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.InBytes, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.OutPkts, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.InPkts, 10)
	b = append(b, ',')
	b = append(b, f.State.String()...)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.SYNCount, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.ACKCount, 10)
	b = append(b, '\n')
	return b
}

// AppendCSV appends flows as CSV to dst: the header row, then one row per
// flow — the textual Netflow exchange format of the toolchain. Every field
// is a bare number or a fixed token (proto, TCP state, dotted-quad IPs), so
// no CSV quoting can ever be needed and the output stays byte-identical to
// the encoding/csv form this encoder replaced. TestWriteCSVMatchesEncodingCSV
// holds that equivalence in place.
func AppendCSV(dst []byte, flows []Flow) []byte {
	dst = append(dst, CSVHeaderLine...)
	for i := range flows {
		dst = AppendCSVRow(dst, &flows[i])
	}
	return dst
}

// WriteCSV writes AppendCSV's bytes for flows to w.
func WriteCSV(w io.Writer, flows []Flow) error {
	_, err := w.Write(AppendCSV(make([]byte, 0, len(CSVHeaderLine)+len(flows)*CSVRowBytes), flows))
	return err
}

// appendIPv4 formats ip as a dotted quad, matching pcap.FormatIPv4.
func appendIPv4(b []byte, ip uint32) []byte {
	b = strconv.AppendUint(b, uint64(ip>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(ip>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(ip>>8&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(ip&0xff), 10)
	return b
}

// ReadCSV parses flows written by WriteCSV.
func ReadCSV(r io.Reader) ([]Flow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	hdr, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("netflow: reading CSV header: %w", err)
	}
	for i, h := range csvHeader {
		if hdr[i] != h {
			return nil, fmt.Errorf("netflow: CSV column %d is %q, want %q", i, hdr[i], h)
		}
	}
	var flows []Flow
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return flows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("netflow: CSV line %d: %w", line, err)
		}
		f, err := parseCSVRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("netflow: CSV line %d: %w", line, err)
		}
		flows = append(flows, f)
	}
}

func parseCSVRecord(rec []string) (Flow, error) {
	var f Flow
	var err error
	geti := func(s string) int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = strconv.ParseInt(s, 10, 64)
		return v
	}
	f.StartMicros = geti(rec[0])
	f.EndMicros = geti(rec[1])
	f.SrcIP, err = parseIPv4(rec[2], err)
	f.DstIP, err = parseIPv4(rec[3], err)
	f.Protocol, err = parseProto(rec[4], err)
	f.SrcPort = uint16(geti(rec[5]))
	f.DstPort = uint16(geti(rec[6]))
	f.OutBytes = geti(rec[7])
	f.InBytes = geti(rec[8])
	f.OutPkts = geti(rec[9])
	f.InPkts = geti(rec[10])
	f.State, err = parseState(rec[11], err)
	f.SYNCount = geti(rec[12])
	f.ACKCount = geti(rec[13])
	return f, err
}

func parseIPv4(s string, prev error) (uint32, error) {
	if prev != nil {
		return 0, prev
	}
	var a, b, c, d uint32
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return 0, fmt.Errorf("bad IPv4 %q: %w", s, err)
	}
	if a > 255 || b > 255 || c > 255 || d > 255 {
		return 0, fmt.Errorf("bad IPv4 %q", s)
	}
	return a<<24 | b<<16 | c<<8 | d, nil
}

func parseProto(s string, prev error) (graph.Protocol, error) {
	if prev != nil {
		return 0, prev
	}
	switch s {
	case "tcp":
		return graph.ProtoTCP, nil
	case "udp":
		return graph.ProtoUDP, nil
	case "icmp":
		return graph.ProtoICMP, nil
	case "unknown":
		return graph.ProtoUnknown, nil
	default:
		return 0, fmt.Errorf("bad protocol %q", s)
	}
}

func parseState(s string, prev error) (graph.TCPState, error) {
	if prev != nil {
		return 0, prev
	}
	states := map[string]graph.TCPState{
		"-": graph.StateNone, "S0": graph.StateS0, "S1": graph.StateS1,
		"SF": graph.StateSF, "REJ": graph.StateREJ, "RSTO": graph.StateRSTO,
		"RSTR": graph.StateRSTR, "SH": graph.StateSH, "OTH": graph.StateOTH,
	}
	st, ok := states[s]
	if !ok {
		return 0, fmt.Errorf("bad TCP state %q", s)
	}
	return st, nil
}
