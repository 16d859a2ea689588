// The sequencer process of the SC baseline: a total-order broadcast point.
//
// Every write is forwarded to the sequencer, stamped with a global sequence
// number, and re-broadcast to every replica (including the writer).
// Combined with in-order application and writer-blocks-until-self-applied
// (sc_node.h), this is the classic fast-read/slow-write implementation of
// sequential consistency — the strong baseline the paper's weak models are
// measured against.
//
// The sequencer also serves barriers: a release carries the global sequence
// watermark at the moment the last process arrived, which every process
// must apply before continuing — all pre-barrier writes are then visible
// everywhere.

#pragma once

#include <map>

#include "baseline/wire.h"
#include "net/actor.h"
#include "net/fabric.h"

namespace mc::baseline {

class Sequencer {
 public:
  Sequencer(net::Fabric& fabric, net::Endpoint self, std::size_t num_procs);

  Sequencer(const Sequencer&) = delete;
  Sequencer& operator=(const Sequencer&) = delete;

  void join() { actor_.join(); }

 private:
  net::Fabric& fabric_;
  net::Endpoint self_;
  std::size_t num_procs_;
  std::uint64_t next_seq_ = 0;
  std::map<std::pair<BarrierId, std::uint64_t>, std::size_t> arrivals_;
  net::Actor actor_{fabric_, self_};
};

}  // namespace mc::baseline
