// Package repro is the root of a Go reproduction of GekkoFS — A
// Temporary Distributed File System for HPC Applications (Vef et al.,
// IEEE CLUSTER 2018). The package itself holds only the repository-wide
// functional benchmarks of the real file system (bench_test.go). The
// public API lives in package gekkofs; docs/ARCHITECTURE.md maps the
// internal layers.
package repro
