//===- e2ebench/src/SelfTest.h - Output-check self-test --------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_E2EBENCH_SELFTEST_H
#define CLIFFEDGE_E2EBENCH_SELFTEST_H

namespace e2ebench {

/// Feeds the independent check one genuine and several corrupted outputs
/// of a small fixed run; true when it accepts the genuine one and rejects
/// every corruption for the expected property. \p Verbose prints each case.
bool selfTest(bool Verbose);

} // namespace e2ebench

#endif // CLIFFEDGE_E2EBENCH_SELFTEST_H
