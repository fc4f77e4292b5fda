#include "quorum/grid.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace dqme::quorum {

GridQuorum::GridQuorum(int n) : n_(n) {
  DQME_CHECK(n >= 1);
  cols_ = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  rows_ = (n + cols_ - 1) / cols_;
}

std::string GridQuorum::name() const {
  std::ostringstream os;
  os << "grid(" << cols_ << "x" << cols_ << ")";
  return os.str();
}

std::optional<Quorum> GridQuorum::cross(
    int r, int c, const std::vector<bool>* alive) const {
  auto live = [&](int row, int col) {
    return exists(row, col) &&
           (alive == nullptr ||
            (*alive)[static_cast<size_t>(site_at(row, col))]);
  };
  Quorum q;
  q.reserve(static_cast<size_t>(cols_ + rows_));
  // The full row r (all its existing cells must be live).
  for (int col = 0; col < cols_; ++col) {
    if (!exists(r, col)) break;  // only the last row is partial
    if (!live(r, col)) return std::nullopt;
    q.push_back(site_at(r, col));
  }
  // A transversal: one live cell in every other row, preferring column c.
  for (int row = 0; row < rows_; ++row) {
    if (row == r) continue;
    if (live(row, c)) {
      q.push_back(site_at(row, c));
      continue;
    }
    bool found = false;
    for (int col = 0; col < cols_ && !found; ++col)
      if (live(row, col)) {
        q.push_back(site_at(row, col));
        found = true;
      }
    if (!found) return std::nullopt;  // a whole row is dead
  }
  normalize(q);
  return q;
}

Quorum GridQuorum::quorum_for(SiteId id) const {
  DQME_CHECK(0 <= id && id < n_);
  auto q = cross(id / cols_, id % cols_, nullptr);
  DQME_CHECK(q.has_value());
  return std::move(*q);
}

std::optional<Quorum> GridQuorum::quorum_for_alive(
    SiteId id, const std::vector<bool>& alive) const {
  DQME_CHECK(0 <= id && id < n_);
  DQME_CHECK(static_cast<int>(alive.size()) == n_);
  const int own_r = id / cols_, own_c = id % cols_;
  // Any fully-live row works as the base row; prefer the site's own.
  for (int d = 0; d < rows_; ++d) {
    if (auto q = cross((own_r + d) % rows_, own_c, &alive)) return q;
  }
  return std::nullopt;
}

bool GridQuorum::available(const std::vector<bool>& alive) const {
  return quorum_for_alive(0, alive).has_value();
}

}  // namespace dqme::quorum
