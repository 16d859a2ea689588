#include "baseline/sequencer.h"

#include <numeric>
#include <vector>

#include "common/check.h"

namespace mc::baseline {

Sequencer::Sequencer(net::Fabric& fabric, net::Endpoint self, std::size_t num_procs)
    : fabric_(fabric), self_(self), num_procs_(num_procs) {
  std::vector<net::Endpoint> everyone(num_procs_);
  std::iota(everyone.begin(), everyone.end(), net::Endpoint{0});
  actor_.on(kScWrite, [this, writer_last = everyone](const net::Message& m) mutable {
    net::Message ordered;
    ordered.src = self_;
    ordered.kind = kScOrdered;
    ordered.a = m.a;
    ordered.b = m.b;
    ordered.c = m.c;
    ordered.d = ++next_seq_;
    ordered.payload = {m.src};
    // The writer's copy goes out last: its write() returns once that
    // copy is applied, and by then every other replica's copy is
    // already on the wire.
    MC_CHECK(m.src < num_procs_);
    std::size_t k = 0;
    for (net::Endpoint e = 0; e < num_procs_; ++e) {
      if (e != m.src) writer_last[k++] = e;
    }
    writer_last[k] = m.src;
    fabric_.multicast(ordered, writer_last);
  });
  actor_.on(kScBarrierArrive, [this, everyone](const net::Message& m) {
    const auto key = std::make_pair(static_cast<BarrierId>(m.a), m.b);
    if (++arrivals_[key] == num_procs_) {
      arrivals_.erase(key);
      net::Message release;
      release.src = self_;
      release.kind = kScBarrierRelease;
      release.a = m.a;
      release.b = m.b;
      release.c = next_seq_;  // watermark: all writes sequenced so far
      fabric_.multicast(release, everyone);
    }
  });
  actor_.start();
}

}  // namespace mc::baseline
