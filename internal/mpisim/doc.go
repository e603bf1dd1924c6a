// Package mpisim is a minimal stand-in for an MPI world: n ranks, each a
// goroutine running the same function, that can meet at a barrier. A
// barrier is a gather of one arrival message per rank at rank 0 followed
// by one release message per rank, 2(P-1) messages in all, and the world
// counts them.
//
// Nothing in the model uses it. The paper's model prices I/O only: the
// burst writers (plotfile, checkpoint, MACSio) price every rank's writes
// in one rank-major loop, and no communication is priced. Its single
// reader is the benchmark harness (cmd/amrio-bench), which times a world
// meeting at the barriers each burst would take on a real machine.
package mpisim
