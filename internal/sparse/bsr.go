// Package sparse implements the block-sparse linear algebra substrate of
// the solver: BSR (block compressed sparse row) matrices with 4x4 blocks —
// the layout the paper credits with coalesced loads and reduced index
// arithmetic — block ILU(0)/ILU(k) factorization, block triangular solves,
// and the two parallel scheduling strategies the paper evaluates for the
// sparse narrow-band recurrences: level scheduling with barriers and
// P2P-sparsified point-to-point synchronization (Park et al., ISC'14).
package sparse

import (
	"fmt"
	"sort"

	"fun3d/internal/blas4"
)

// B is the block size (4 unknowns per mesh vertex: p,u,v,w).
const B = blas4.B

// BB is the number of scalars per block.
const BB = blas4.BB

// BSR is a square block-sparse matrix with 4x4 blocks in CSR-of-blocks
// layout. Column indices within each row are strictly ascending and every
// row contains its diagonal block.
type BSR struct {
	N    int       // block rows
	Ptr  []int32   // len N+1
	Col  []int32   // len Ptr[N], ascending per row
	Val  []float64 // len Ptr[N]*BB, blocks row-major
	Diag []int32   // Diag[i] = index into Col/blocks of row i's diagonal
}

// NewBSRFromAdj builds a zero-valued BSR whose pattern is the mesh
// adjacency plus the diagonal: exactly the sparsity of the first-order
// Jacobian of an edge-based scheme. adjPtr/adj must have sorted rows.
func NewBSRFromAdj(adjPtr, adj []int32) *BSR {
	n := len(adjPtr) - 1
	ptr := make([]int32, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + (adjPtr[i+1] - adjPtr[i]) + 1 // +1 diagonal
	}
	col := make([]int32, ptr[n])
	diag := make([]int32, n)
	for i := 0; i < n; i++ {
		dst := ptr[i]
		placed := false
		for k := adjPtr[i]; k < adjPtr[i+1]; k++ {
			c := adj[k]
			if !placed && c > int32(i) {
				diag[i] = dst
				col[dst] = int32(i)
				dst++
				placed = true
			}
			col[dst] = c
			dst++
		}
		if !placed {
			diag[i] = dst
			col[dst] = int32(i)
			dst++
		}
	}
	return &BSR{N: n, Ptr: ptr, Col: col, Val: make([]float64, int(ptr[n])*BB), Diag: diag}
}

// NewBSRFromPattern builds a zero BSR from an explicit pattern given as a
// row-wise list of column indices (each row must include its diagonal; rows
// are sorted internally).
func NewBSRFromPattern(rows [][]int32) (*BSR, error) {
	n := len(rows)
	ptr := make([]int32, n+1)
	for i, r := range rows {
		ptr[i+1] = ptr[i] + int32(len(r))
	}
	col := make([]int32, ptr[n])
	diag := make([]int32, n)
	for i, r := range rows {
		rr := append([]int32(nil), r...)
		sort.Slice(rr, func(a, b int) bool { return rr[a] < rr[b] })
		found := false
		for k, c := range rr {
			if k > 0 && rr[k-1] == c {
				return nil, fmt.Errorf("sparse: duplicate column %d in row %d", c, i)
			}
			if c < 0 || int(c) >= n {
				return nil, fmt.Errorf("sparse: column %d out of range in row %d", c, i)
			}
			col[int(ptr[i])+k] = c
			if c == int32(i) {
				diag[i] = ptr[i] + int32(k)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("sparse: row %d lacks a diagonal entry", i)
		}
	}
	return &BSR{N: n, Ptr: ptr, Col: col, Val: make([]float64, int(ptr[n])*BB), Diag: diag}, nil
}

// NNZBlocks returns the number of stored blocks.
func (a *BSR) NNZBlocks() int { return len(a.Col) }

// Block returns the 4x4 block at storage slot k (a mutable slice view).
func (a *BSR) Block(k int32) []float64 { return a.Val[int(k)*BB : int(k)*BB+BB] }

// BlockAt returns the slot of block (i,j), or -1 if not in the pattern.
func (a *BSR) BlockAt(i, j int32) int32 {
	lo, hi := a.Ptr[i], a.Ptr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.Col[mid] < j:
			lo = mid + 1
		case a.Col[mid] > j:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// Zero clears all values.
func (a *BSR) Zero() {
	for i := range a.Val {
		a.Val[i] = 0
	}
}

// CloneStructure returns a matrix that SHARES a's index structure
// (Ptr/Col/Diag, read-only by convention) but owns a fresh zero value
// array. Concurrent solves over one mesh each assemble their own Jacobian
// values into a structure-shared clone, so the pattern — identical for
// every solve on the mesh — is stored and built once.
func (a *BSR) CloneStructure() *BSR {
	return &BSR{
		N:    a.N,
		Ptr:  a.Ptr,
		Col:  a.Col,
		Val:  make([]float64, len(a.Val)),
		Diag: a.Diag,
	}
}

// Clone returns a deep copy.
func (a *BSR) Clone() *BSR {
	return &BSR{
		N:    a.N,
		Ptr:  append([]int32(nil), a.Ptr...),
		Col:  append([]int32(nil), a.Col...),
		Val:  append([]float64(nil), a.Val...),
		Diag: append([]int32(nil), a.Diag...),
	}
}

// AddToDiag adds s to every scalar diagonal entry (used for the
// pseudo-transient V/Δt shift).
func (a *BSR) AddToDiag(s float64) {
	for i := 0; i < a.N; i++ {
		blas4.AddDiag(a.Block(a.Diag[i]), s)
	}
}

// SetIdentity writes the identity into the diagonal blocks (values
// elsewhere untouched).
func (a *BSR) SetIdentity() {
	for i := 0; i < a.N; i++ {
		b := a.Block(a.Diag[i])
		blas4.Zero(b)
		blas4.AddDiag(b, 1)
	}
}
