// Package subgraph implements Section 3.1 of the paper: subgraph detection
// in the broadcast congested clique.
//
//   - The one-round reconstruction algorithm A(G,k) of Becker et al. [2]:
//     every node broadcasts O(k·log n) bits (its degree plus the first k
//     power sums of its neighbor identifiers over a prime field), and if
//     the graph is k-degenerate every node reconstructs the entire
//     topology by peeling; otherwise all nodes detect that the degeneracy
//     exceeds k.
//   - Theorem 7: H-subgraph detection in O(ex(n,H)/n · log(n)/b) rounds by
//     running A with the Claim 6 degeneracy bound 4·ex(n,H)/n.
//   - Theorem 9: the adaptive detector for unknown Turán numbers, with
//     exponentially growing degeneracy guesses and the X_v ≡ X_u (mod 2^j)
//     edge-sampling scheme of Lemma 8. (The printed pseudocode's early
//     "no H-subgraph" exit on subsampled graphs is repaired per the prose;
//     see DESIGN.md §4.4.)
package subgraph

import (
	"repro/internal/bits"
	"repro/internal/graph"
)

// fieldFor returns the smallest prime p > n, the field in which neighbor
// identifiers (1..n) are summed. p > n makes identifiers distinct field
// elements and p > r permits Newton's identities up to degree r <= n-1.
func fieldFor(n int) uint64 {
	p := uint64(n + 1)
	for !isPrime(p) {
		p++
	}
	return p
}

func isPrime(q uint64) bool {
	if q < 2 {
		return false
	}
	for d := uint64(2); d*d <= q; d++ {
		if q%d == 0 {
			return false
		}
	}
	return true
}

func modpow(a, e, p uint64) uint64 {
	a %= p
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = r * a % p
		}
		a = a * a % p
		e >>= 1
	}
	return r
}

func modinv(a, p uint64) uint64 { return modpow(a, p-2, p) }

// powerSums returns the first k power sums over F_p of the identifiers
// (v+1) of the given vertices: sums[j-1] = Σ (v+1)^j mod p.
func powerSums(neighbors []int, k int, p uint64) []uint64 {
	sums := make([]uint64, k)
	for _, v := range neighbors {
		id := uint64(v+1) % p
		x := uint64(1)
		for j := 0; j < k; j++ {
			x = x * id % p
			sums[j] = (sums[j] + x) % p
		}
	}
	return sums
}

// newtonToElementary converts power sums s_1..s_r of r roots into the
// elementary symmetric polynomials e_1..e_r via Newton's identities over
// F_p (valid because p > r).
func newtonToElementary(s []uint64, r int, p uint64) []uint64 {
	e := make([]uint64, r+1)
	e[0] = 1
	for i := 1; i <= r; i++ {
		var acc uint64
		sign := true // (-1)^{j-1} starting positive at j=1
		for j := 1; j <= i; j++ {
			term := e[i-j] * s[j-1] % p
			if sign {
				acc = (acc + term) % p
			} else {
				acc = (acc + p - term) % p
			}
			sign = !sign
		}
		e[i] = acc * modinv(uint64(i), p) % p
	}
	return e[1:]
}

// rootsFromSums recovers the set of r distinct identifiers in [1..n] whose
// first r power sums over F_p equal s, or fails. The monic polynomial
// Π(x - root) = Σ (-1)^i e_i x^{r-i} is evaluated at every candidate.
func rootsFromSums(s []uint64, r, n int, p uint64) ([]int, bool) {
	if r == 0 {
		return nil, true
	}
	e := newtonToElementary(s, r, p)
	// coeffs[i] = coefficient of x^{r-i}: (-1)^i e_i, with e_0 = 1.
	coeffs := make([]uint64, r+1)
	coeffs[0] = 1
	for i := 1; i <= r; i++ {
		if i%2 == 1 {
			coeffs[i] = (p - e[i-1]) % p
		} else {
			coeffs[i] = e[i-1]
		}
	}
	var roots []int
	for cand := 1; cand <= n; cand++ {
		x := uint64(cand) % p
		var acc uint64
		for _, c := range coeffs {
			acc = (acc*x + c) % p
		}
		if acc == 0 {
			roots = append(roots, cand)
			if len(roots) > r {
				return nil, false
			}
		}
	}
	if len(roots) != r {
		return nil, false
	}
	return roots, true
}

// Announcement is one node's broadcast in algorithm A: its degree and the
// first k power sums of its neighbors' identifiers.
type Announcement struct {
	Degree int
	Sums   []uint64
}

// Announce computes a node's algorithm-A broadcast for parameter k over
// field p.
func Announce(neighbors []int, k int, p uint64) Announcement {
	return Announcement{Degree: len(neighbors), Sums: powerSums(neighbors, k, p)}
}

// Decode is the referee computation of algorithm A: given all n
// announcements for parameter k, it either reconstructs the unique graph
// consistent with them (when the graph is k-degenerate) or reports that
// the degeneracy exceeds k. Every node of the broadcast clique runs Decode
// on the same blackboard contents, so all outcomes agree.
func Decode(anns []Announcement, k int, p uint64) (*graph.Graph, bool) {
	n := len(anns)
	degRem := make([]int, n)
	sumsRem := make([][]uint64, n)
	for v, a := range anns {
		if a.Degree < 0 || a.Degree >= n || len(a.Sums) < k {
			return nil, false
		}
		degRem[v] = a.Degree
		sumsRem[v] = append([]uint64(nil), a.Sums...)
	}
	g := graph.New(n)
	processed := make([]bool, n)
	queue := make([]int, 0, n)
	inQueue := make([]bool, n)
	for v := 0; v < n; v++ {
		if degRem[v] <= k {
			queue = append(queue, v)
			inQueue[v] = true
		}
	}
	remaining := n
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		if processed[v] || degRem[v] > k {
			continue
		}
		r := degRem[v]
		if r < 0 {
			return nil, false // inconsistent announcements drove a degree negative
		}
		roots, ok := rootsFromSums(sumsRem[v][:r], r, n, p)
		if !ok {
			return nil, false
		}
		for _, id := range roots {
			u := id - 1
			if u == v || processed[u] || g.HasEdge(v, u) {
				return nil, false // inconsistent announcements
			}
			g.AddEdge(v, u)
			// Remove v's contribution from u's remaining sums.
			vid := uint64(v+1) % p
			x := uint64(1)
			for j := 0; j < len(sumsRem[u]); j++ {
				x = x * vid % p
				sumsRem[u][j] = (sumsRem[u][j] + p - x) % p
			}
			degRem[u]--
			if degRem[u] < 0 {
				return nil, false // more edges at u than it announced
			}
			if degRem[u] <= k && !processed[u] && !inQueue[u] {
				queue = append(queue, u)
				inQueue[u] = true
			}
		}
		processed[v] = true
		degRem[v] = 0
		remaining--
	}
	if remaining > 0 {
		return nil, false // peeling stuck: degeneracy > k
	}
	// Defensive verification: the reconstruction must reproduce every
	// announcement exactly.
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		if len(nb) != anns[v].Degree {
			return nil, false
		}
		sums := powerSums(nb, k, p)
		for j := 0; j < k; j++ {
			if sums[j] != anns[v].Sums[j] {
				return nil, false
			}
		}
	}
	return g, true
}

// MessageBits returns the exact bit size of one algorithm-A broadcast for
// an n-node graph with parameter k: ceil(log2 n) for the degree plus k
// field elements — the O(k·log n) of [2].
func MessageBits(n, k int) int {
	p := fieldFor(n)
	return bits.UintWidth(uint64(n-1)) + k*bits.UintWidth(p-1)
}
