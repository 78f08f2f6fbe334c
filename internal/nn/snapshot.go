package nn

import (
	"fmt"
	"math"
)

// Weight snapshot/restore: the serving daemon's online trainer updates its
// own copy of the networks and periodically publishes the weights into a
// spare inference network, which the batch loop then swaps in atomically
// (see internal/serve). Snapshot and Restore are the copy half of that
// double-buffering: Snapshot captures weights without touching inference
// state, and Restore installs them into a network whose inference-only
// caches (the weight transpose, see ensureInferCache) are refreshed in
// place, so a restored network serves the new weights immediately instead
// of from a stale cache.

// Snapshot is a flat copy of a network's trainable parameters. The backing
// slices are reused across Snapshot calls on same-shaped networks, so a
// steady-state publish cycle does not allocate.
type Snapshot struct {
	W [][]float64 // per layer, row-major Out×In
	B [][]float64 // per layer, len Out
}

// Snapshot copies the network's weights into dst (allocated or grown as
// needed) and returns it. A nil dst allocates a fresh snapshot.
func (n *Network) Snapshot(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = &Snapshot{}
	}
	if cap(dst.W) < len(n.Layers) {
		dst.W = make([][]float64, len(n.Layers))
		dst.B = make([][]float64, len(n.Layers))
	}
	dst.W = dst.W[:len(n.Layers)]
	dst.B = dst.B[:len(n.Layers)]
	for i, l := range n.Layers {
		if cap(dst.W[i]) < len(l.W.Data) {
			dst.W[i] = make([]float64, len(l.W.Data))
		}
		dst.W[i] = dst.W[i][:len(l.W.Data)]
		copy(dst.W[i], l.W.Data)
		if cap(dst.B[i]) < len(l.B) {
			dst.B[i] = make([]float64, len(l.B))
		}
		dst.B[i] = dst.B[i][:len(l.B)]
		copy(dst.B[i], l.B)
	}
	return dst
}

// Restore installs a snapshot taken from a same-shaped network and
// refreshes any inference-only caches so subsequent ForwardBatchInfer and
// ForwardGroupedInfer calls serve the restored weights. The network must not be evaluated
// concurrently with Restore; the serving daemon guarantees that by only
// restoring into buffers the batch loop has not yet been handed.
func (n *Network) Restore(s *Snapshot) error {
	if len(s.W) != len(n.Layers) || len(s.B) != len(n.Layers) {
		return fmt.Errorf("nn: restore snapshot has %d/%d layers, network has %d",
			len(s.W), len(s.B), len(n.Layers))
	}
	for i, l := range n.Layers {
		if len(s.W[i]) != len(l.W.Data) || len(s.B[i]) != len(l.B) {
			return fmt.Errorf("nn: restore layer %d shape mismatch", i)
		}
	}
	for i, l := range n.Layers {
		copy(l.W.Data, s.W[i])
		copy(l.B, s.B[i])
		l.ensureInferCache(true)
	}
	return nil
}

// Checksum returns an FNV-1a hash over the exact bit patterns of every
// weight and bias, in layer order. Two networks with bitwise-identical
// parameters hash identically, which is what the deterministic end-to-end
// harness asserts across repeated online-learning runs.
func (n *Network) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v float64) {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime64
		}
	}
	for _, l := range n.Layers {
		for _, v := range l.W.Data {
			mix(v)
		}
		for _, v := range l.B {
			mix(v)
		}
	}
	return h
}
