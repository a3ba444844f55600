// Package physics implements the incompressible Euler equations in
// artificial compressibility form, the paper's flow model (§II.A.2):
//
//	state  q = (p, u, v, w)
//	flux   f·n̂ = (βΘ, uΘ + n̂x p, vΘ + n̂y p, wΘ + n̂z p),  Θ = n̂·(u,v,w)
//
// with a Roe-type flux-difference-splitting numerical flux. The upwind
// dissipation |A|(qR−qL) uses the exact matrix absolute value computed as
// the quadratic interpolation polynomial of |λ| on the spectrum
// {Θ, Θ+c, Θ−c}, c = sqrt(Θ²+β) — exact because the artificial
// compressibility Jacobian is diagonalizable with those three distinct
// eigenvalues (Θ has a two-dimensional eigenspace). This avoids
// hand-derived eigenvector matrices while keeping the scheme genuinely Roe
// (the paper's "solving a 3×3 eigen-system on each face" in incompressible
// 3-D corresponds to this 4×4 system's three distinct eigenvalues).
package physics

import (
	"math"

	"fun3d/internal/geom"
)

// N is the number of unknowns per vertex.
const N = 4

// State is one vertex state (p, u, v, w).
type State [N]float64

// Params holds the model constants.
type Params struct {
	Beta float64 // artificial compressibility parameter (typically 1..10)
}

// DefaultParams returns the conventional β = 5 setting.
func DefaultParams() Params { return Params{Beta: 5} }

// FreeStream returns the freestream state at angle of attack alpha (deg)
// and sideslip 0: unit velocity in the x–z plane, zero gauge pressure.
func FreeStream(alphaDeg float64) State {
	a := alphaDeg * math.Pi / 180
	return State{0, math.Cos(a), 0, math.Sin(a)}
}

// PhysFlux returns the physical (inviscid) flux through a dual face with
// area vector n (not normalized — magnitude carries the face area).
func PhysFlux(q State, n geom.Vec3, beta float64) State {
	theta := n.X*q[1] + n.Y*q[2] + n.Z*q[3] // area-scaled normal velocity
	return State{
		beta * theta,
		q[1]*theta + n.X*q[0],
		q[2]*theta + n.Y*q[0],
		q[3]*theta + n.Z*q[0],
	}
}

// Jacobian fills a (row-major 4x4) with dF/dq for the area-scaled flux
// through n.
func Jacobian(q State, n geom.Vec3, beta float64, a *[16]float64) {
	theta := n.X*q[1] + n.Y*q[2] + n.Z*q[3]
	u, v, w := q[1], q[2], q[3]
	a[0], a[1], a[2], a[3] = 0, beta*n.X, beta*n.Y, beta*n.Z
	a[4], a[5], a[6], a[7] = n.X, theta+u*n.X, u*n.Y, u*n.Z
	a[8], a[9], a[10], a[11] = n.Y, v*n.X, theta+v*n.Y, v*n.Z
	a[12], a[13], a[14], a[15] = n.Z, w*n.X, w*n.Y, theta+w*n.Z
}

// AbsJacobian fills m with |A| for the area-scaled flux Jacobian at state
// q: m = a0 I + a1 A + a2 A², where (a0,a1,a2) interpolate |λ| on the
// spectrum. The area scaling rides along exactly (all eigenvalues scale by
// the face area).
func AbsJacobian(q State, n geom.Vec3, beta float64, m *[16]float64) {
	absJacobian(q, n, beta, State{}, m)
}

// absJacobian is the one |A| kernel behind RoeFlux, RoeFluxJacobians and
// AbsJacobian. It returns |A|·dq and, when m is non-nil, also stores |A|
// into m.
//
// The entries of A, A² and |A| live in scalar locals: gc keeps no array of
// more than one element in registers and unrolls no loops, so the matrix
// form (A and A² in [16] arrays, a triple-loop product) loads and stores
// every flop. Each A² entry is still accumulated from 0 in k order and each
// dissipation row from 0 in column order, the matrix form's exact
// operations, so results are bit-identical to it, signed zeros included;
// physics_test.go keeps that form as the oracle.
func absJacobian(q State, n geom.Vec3, beta float64, dq State, m *[16]float64) (d0, d1, d2, d3 float64) {
	var m00, m01, m02, m03, m10, m11, m12, m13 float64
	var m20, m21, m22, m23, m30, m31, m32, m33 float64
	if area := n.Norm(); area != 0 {
		nh := n.Scale(1 / area)
		u, v, w := q[1], q[2], q[3]
		theta := nh.X*u + nh.Y*v + nh.Z*w
		c := math.Sqrt(theta*theta + beta)
		// Eigenvalues of the unit-normal Jacobian.
		l1, l2, l3 := theta, theta+c, theta-c
		// Quadratic Lagrange interpolation of |λ| at l1,l2,l3.
		f1, f2, f3 := math.Abs(l1), math.Abs(l2), math.Abs(l3)
		e1 := (l1 - l2) * (l1 - l3)
		e2 := (l2 - l1) * (l2 - l3)
		e3 := (l3 - l1) * (l3 - l2)
		// P(λ) = sum f_i * prod (λ - l_j)/(l_i - l_j); expand to a0+a1 λ+a2 λ².
		a2 := f1/e1 + f2/e2 + f3/e3
		a1 := -(f1*(l2+l3)/e1 + f2*(l1+l3)/e2 + f3*(l1+l2)/e3)
		a0 := f1*l2*l3/e1 + f2*l1*l3/e2 + f3*l1*l2/e3

		// A = Jacobian(q, nh), row-major.
		a00, a01, a02, a03 := 0.0, beta*nh.X, beta*nh.Y, beta*nh.Z
		a10, a11, a12, a13 := nh.X, theta+u*nh.X, u*nh.Y, u*nh.Z
		a20, a21, a22, a23 := nh.Y, v*nh.X, theta+v*nh.Y, v*nh.Z
		a30, a31, a32, a33 := nh.Z, w*nh.X, w*nh.Y, theta+w*nh.Z

		// |A|_ij = (a1 A_ij + a2 (A²)_ij) area, plus a0 area on the diagonal.
		m00 = (a1*a00+a2*dot4(a00, a01, a02, a03, a00, a10, a20, a30))*area + a0*area
		m01 = (a1*a01 + a2*dot4(a00, a01, a02, a03, a01, a11, a21, a31)) * area
		m02 = (a1*a02 + a2*dot4(a00, a01, a02, a03, a02, a12, a22, a32)) * area
		m03 = (a1*a03 + a2*dot4(a00, a01, a02, a03, a03, a13, a23, a33)) * area
		m10 = (a1*a10 + a2*dot4(a10, a11, a12, a13, a00, a10, a20, a30)) * area
		m11 = (a1*a11+a2*dot4(a10, a11, a12, a13, a01, a11, a21, a31))*area + a0*area
		m12 = (a1*a12 + a2*dot4(a10, a11, a12, a13, a02, a12, a22, a32)) * area
		m13 = (a1*a13 + a2*dot4(a10, a11, a12, a13, a03, a13, a23, a33)) * area
		m20 = (a1*a20 + a2*dot4(a20, a21, a22, a23, a00, a10, a20, a30)) * area
		m21 = (a1*a21 + a2*dot4(a20, a21, a22, a23, a01, a11, a21, a31)) * area
		m22 = (a1*a22+a2*dot4(a20, a21, a22, a23, a02, a12, a22, a32))*area + a0*area
		m23 = (a1*a23 + a2*dot4(a20, a21, a22, a23, a03, a13, a23, a33)) * area
		m30 = (a1*a30 + a2*dot4(a30, a31, a32, a33, a00, a10, a20, a30)) * area
		m31 = (a1*a31 + a2*dot4(a30, a31, a32, a33, a01, a11, a21, a31)) * area
		m32 = (a1*a32 + a2*dot4(a30, a31, a32, a33, a02, a12, a22, a32)) * area
		m33 = (a1*a33+a2*dot4(a30, a31, a32, a33, a03, a13, a23, a33))*area + a0*area
	}
	if m != nil {
		*m = [16]float64{m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33}
	}
	d0 = dot4(m00, m01, m02, m03, dq[0], dq[1], dq[2], dq[3])
	d1 = dot4(m10, m11, m12, m13, dq[0], dq[1], dq[2], dq[3])
	d2 = dot4(m20, m21, m22, m23, dq[0], dq[1], dq[2], dq[3])
	d3 = dot4(m30, m31, m32, m33, dq[0], dq[1], dq[2], dq[3])
	return
}

// dot4 is x·y accumulated from +0 in index order, the matrix-product loop
// `s := 0.0; for k { s += x[k]*y[k] }` with its signed-zero behaviour.
func dot4(x0, x1, x2, x3, y0, y1, y2, y3 float64) float64 {
	s := 0.0
	s += x0 * y0
	s += x1 * y1
	s += x2 * y2
	s += x3 * y3
	return s
}

// RoeFlux returns the Roe flux-difference-splitting numerical flux through
// area vector n (pointing left → right):
//
//	F = ½(F(qL) + F(qR)) − ½ |A(q̄)| (qR − qL)
//
// with q̄ the arithmetic state average (the standard choice for artificial
// compressibility).
func RoeFlux(qL, qR State, n geom.Vec3, beta float64) State {
	fl := PhysFlux(qL, n, beta)
	fr := PhysFlux(qR, n, beta)
	qbar := State{0.5 * (qL[0] + qR[0]), 0.5 * (qL[1] + qR[1]), 0.5 * (qL[2] + qR[2]), 0.5 * (qL[3] + qR[3])}
	dq := State{qR[0] - qL[0], qR[1] - qL[1], qR[2] - qL[2], qR[3] - qL[3]}
	d0, d1, d2, d3 := absJacobian(qbar, n, beta, dq, nil)
	return State{
		0.5*(fl[0]+fr[0]) - 0.5*d0,
		0.5*(fl[1]+fr[1]) - 0.5*d1,
		0.5*(fl[2]+fr[2]) - 0.5*d2,
		0.5*(fl[3]+fr[3]) - 0.5*d3,
	}
}

// RusanovFlux is the local Lax–Friedrichs flux: cheaper, more diffusive.
// Used by the baseline configuration and as a cross-check.
func RusanovFlux(qL, qR State, n geom.Vec3, beta float64) State {
	area := n.Norm()
	fl := PhysFlux(qL, n, beta)
	fr := PhysFlux(qR, n, beta)
	var qbar State
	for i := 0; i < N; i++ {
		qbar[i] = 0.5 * (qL[i] + qR[i])
	}
	lam := SpectralRadius(qbar, n, beta) * area
	var out State
	for i := 0; i < N; i++ {
		out[i] = 0.5*(fl[i]+fr[i]) - 0.5*lam*(qR[i]-qL[i])
	}
	return out
}

// SpectralRadius returns |Θ| + c for the unit normal of n.
func SpectralRadius(q State, n geom.Vec3, beta float64) float64 {
	area := n.Norm()
	if area == 0 {
		return math.Sqrt(beta)
	}
	nh := n.Scale(1 / area)
	theta := nh.X*q[1] + nh.Y*q[2] + nh.Z*q[3]
	return math.Abs(theta) + math.Sqrt(theta*theta+beta)
}

// RoeFluxJacobians fills dL and dR with the frozen-dissipation linearization
// of RoeFlux:
//
//	dF/dqL ≈ ½ A(qL) + ½ |A(q̄)|,   dF/dqR ≈ ½ A(qR) − ½ |A(q̄)|
//
// This is the standard first-order approximate linearization used to build
// the preconditioning Jacobian ("derived from a lower-order, sparser and
// more diffusive discretization", paper §II.B).
func RoeFluxJacobians(qL, qR State, n geom.Vec3, beta float64, dL, dR *[16]float64) {
	var qbar State
	for i := 0; i < N; i++ {
		qbar[i] = 0.5 * (qL[i] + qR[i])
	}
	var absA [16]float64
	AbsJacobian(qbar, n, beta, &absA)
	Jacobian(qL, n, beta, dL)
	Jacobian(qR, n, beta, dR)
	for i := 0; i < 16; i++ {
		dL[i] = 0.5*dL[i] + 0.5*absA[i]
		dR[i] = 0.5*dR[i] - 0.5*absA[i]
	}
}

// WallFlux returns the slip-wall boundary flux through outward area vector
// n: only the pressure terms survive (Θ = 0 imposed weakly).
func WallFlux(q State, n geom.Vec3) State {
	return State{0, n.X * q[0], n.Y * q[0], n.Z * q[0]}
}

// WallFluxJacobian fills a with dWallFlux/dq.
func WallFluxJacobian(n geom.Vec3, a *[16]float64) {
	for i := range a {
		a[i] = 0
	}
	a[4] = n.X
	a[8] = n.Y
	a[12] = n.Z
}

// FarfieldFlux returns the characteristic farfield flux through outward
// area vector n: a Roe flux between the interior state and freestream.
func FarfieldFlux(q, qInf State, n geom.Vec3, beta float64) State {
	return RoeFlux(q, qInf, n, beta)
}

// FarfieldFluxJacobian fills a with the interior-state linearization of
// FarfieldFlux (freestream is constant).
func FarfieldFluxJacobian(q, qInf State, n geom.Vec3, beta float64, a *[16]float64) {
	var dR [16]float64
	RoeFluxJacobians(q, qInf, n, beta, a, &dR)
}
