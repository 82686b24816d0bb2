#include "interval/absorbing_mis.hpp"

#include <algorithm>
#include <numeric>

namespace chordal::interval {

std::vector<std::size_t> absorbing_mis(const PathIntervals& rep,
                                       AttachSide side) {
  // Attachment on the left: sweep right-to-left, i.e. run the greedy on the
  // mirror image (x -> num_positions - x), where the latest start ends
  // first. No attachment or attachment on the right: the plain sweep.
  PathIntervals mirrored;
  const PathIntervals* model = &rep;
  if (side == AttachSide::kLeft) {
    mirrored.vertices = rep.vertices;
    mirrored.num_positions = rep.num_positions + 1;
    for (std::size_t i = 0; i < rep.vertices.size(); ++i) {
      mirrored.lo.push_back(rep.num_positions - rep.hi[i]);
      mirrored.hi.push_back(rep.num_positions - rep.lo[i]);
    }
    model = &mirrored;
  }
  std::vector<std::size_t> chosen(rep.vertices.size());
  std::iota(chosen.begin(), chosen.end(), std::size_t{0});
  chosen.resize(interval_mis(*model, chosen));
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace chordal::interval
