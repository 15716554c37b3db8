package kronecker

// droptask.go makes the SKG ball-drop stage remotable: one generate task
// becomes a self-contained payload (initiator, depth, seed, block range)
// that any worker process can replay into the identical edge pairs the local
// closure would produce. The RNG streams are cluster.DrawBlocks' on (seed,
// first block, count), exactly as cluster.GenerateRemotable draws locally,
// so where the drops run never changes which edges fall out.

import (
	"encoding/binary"
	"fmt"
	"math"

	"csb/internal/cluster"
	"csb/internal/dist/task"
	"csb/internal/stats"
)

// DropTaskKind is the registered remote kind of the ball-drop stage. Its
// payload names a block range; a worker that still keys streams by partition
// knows only the old kind, so it declines the task instead of misreading it.
const DropTaskKind = "kron.drop2"

// dropTaskLen is the fixed payload size: 4 thetas, k, seed, block, count.
const dropTaskLen = 4*8 + 8 + 8 + 8 + 8

func init() { task.Register(DropTaskKind, runDropTask) }

// encodeDropTask renders one generate task as a drop-task payload.
func encodeDropTask(in Initiator, k int, seed, block uint64, count int64) []byte {
	b := make([]byte, dropTaskLen)
	for i, t := range in.Theta {
		binary.BigEndian.PutUint64(b[i*8:], math.Float64bits(t))
	}
	binary.BigEndian.PutUint64(b[32:], uint64(k))
	binary.BigEndian.PutUint64(b[40:], seed)
	binary.BigEndian.PutUint64(b[48:], block)
	binary.BigEndian.PutUint64(b[56:], uint64(count))
	return b
}

// runDropTask replays one task's recursive descents and returns the landed
// (u, v) cells as big-endian int64 pairs.
func runDropTask(payload []byte) ([]byte, error) {
	if len(payload) != dropTaskLen {
		return nil, fmt.Errorf("kronecker: drop task payload is %d bytes, want %d", len(payload), dropTaskLen)
	}
	var in Initiator
	for i := range in.Theta {
		in.Theta[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[i*8:]))
	}
	k := int(binary.BigEndian.Uint64(payload[32:]))
	seed := binary.BigEndian.Uint64(payload[40:])
	block := binary.BigEndian.Uint64(payload[48:])
	count := int64(binary.BigEndian.Uint64(payload[56:]))
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || k > 62 {
		return nil, fmt.Errorf("kronecker: drop task k = %d out of range [1,62]", k)
	}
	if count < 0 || count > (1<<32) {
		return nil, fmt.Errorf("kronecker: drop task count %d out of range", count)
	}
	out := make([]byte, 0, count*16)
	var rec [16]byte
	cluster.DrawBlocks(seed, block, count, func(rng *stats.RNG, n int64) {
		for range n {
			u, v := dropEdge(&in, k, rng)
			binary.BigEndian.PutUint64(rec[0:8], uint64(u))
			binary.BigEndian.PutUint64(rec[8:16], uint64(v))
			out = append(out, rec[:]...)
		}
	})
	return out, nil
}

// decodePairs parses a drop-task result back into edge pairs.
func decodePairs(result []byte) ([][2]int64, error) {
	if len(result)%16 != 0 {
		return nil, fmt.Errorf("kronecker: drop result length %d not a multiple of 16", len(result))
	}
	pairs := make([][2]int64, len(result)/16)
	for i := range pairs {
		pairs[i][0] = int64(binary.BigEndian.Uint64(result[i*16:]))
		pairs[i][1] = int64(binary.BigEndian.Uint64(result[i*16+8:]))
	}
	return pairs, nil
}
