// Package gridsched implements the classic spatial-reuse TDMA baseline
// for two-dimensional Euclidean instances: requests are bucketed into
// geometric length classes; within a class the plane is tiled with cells
// proportional to the class length and colors are reused between cells
// whose grid coordinates agree modulo a reuse factor k, so simultaneous
// transmitters are at least k cells apart. The reuse factor adapts
// (doubles) until every class verifies against the exact SINR
// constraints.
//
// This is the folklore algorithm that graph-based MAC protocols implement
// and against which the paper's SINR-native algorithms should be
// compared: its color count carries an O(log Δ) factor from the length
// classes, where Δ is the aspect ratio (geom.AspectRatio).
//
// Exported entry point: Schedule runs the baseline under square root
// powers, with the reuse factor doubling from 2 up to 64, and returns a
// verified schedule.
package gridsched
