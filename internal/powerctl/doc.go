// Package powerctl decides whether a set of requests can be scheduled in
// a single time slot when the power assignment is unconstrained (the
// "optimal power assignment" the paper's theorems quantify over), and
// produces witness powers when it can.
//
// Directed variant: with noise ν = 0 the SINR constraints for a set S read
// p_i ≥ Σ_{j≠i} B_ij p_j with B_ij = β·ℓ_i/ℓ(u_j, v_i). A positive
// solution exists iff the spectral radius ρ(B) < 1 (Perron–Frobenius);
// this package estimates ρ by power iteration and obtains witness powers
// from the convergent fixed-point iteration p ← Bp + 1.
//
// Bidirectional variant: the right-hand side becomes the monotone,
// homogeneous map I_i(p) = β·ℓ_i·max_{w∈{u_i,v_i}} Σ_{j≠i} p_j/min-loss(j,w).
// Feasibility is equivalent to the nonlinear Perron root (Collatz–Wielandt
// growth rate) of I being < 1, estimated by normalized iteration — the
// standard-interference-function framework of Yates (1995).
//
// Exported entry points: Feasible runs the test and returns witness
// powers, GrowthRate exposes the estimated Perron root. The iteration
// budget (500 steps), the convergence tolerance (1e-12) and the dead
// zone below growth rate 1 (1e-7) are fixed. This oracle is the
// baseline the lower-bound and single-slot experiments compare
// oblivious assignments against.
package powerctl
