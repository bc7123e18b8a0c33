// paper.h — the paper-fidelity probes: Tables 1, 2 and 3.
//
// Each probe rebuilds the paper's measurement on its own fixed inputs
// (the seed argument does not reach it) and times every operation from
// its issue to the virtual time its reply or event arrives.  The
// probes run outside the timed window and outside set-up.
#pragma once

#include <string>
#include <vector>

namespace ppmbench {

struct PaperCell {
  std::string name;   // per-layer metric name, e.g. "paper.t2.one_hop.stop_ms"
  double measured = 0;
  double paper = -1;  // < 0: the paper gives no value for this cell
};

// Table 1: kernel->LPM delivery of a 112-byte message against load, per
// host type (11 cells).
std::vector<PaperCell> RunTable1();
// Table 2: create / stop / terminate within a host, one hop and two hops
// (9 cells, 7 with a paper value).
std::vector<PaperCell> RunTable2();
// Table 3: snapshot time in the four topologies of Figure 5 (4 cells).
std::vector<PaperCell> RunTable3();

// Mean |measured - paper| / paper over the cells with a paper value, in %.
double MeanErrPct(const std::vector<PaperCell>& cells);

}  // namespace ppmbench
