// One uniform bucket grid for the subdivision's spatial lookups: Voronoi's
// site grid, the stitch's vertex grid, the border-distance grid and
// PointLocator's region grid.
//
// A BucketGrid holds dim x dim buckets over a box, stored CSR: bucket b's
// item ids are ids[offsets[b] .. offsets[b + 1]), ascending. Each caller
// picks its own box and dim; the cells are max(extent, 1e-9) / dim wide
// and tall.

#ifndef DTREE_SUBDIVISION_BUCKET_GRID_H_
#define DTREE_SUBDIVISION_BUCKET_GRID_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.h"

namespace dtree::sub {

class BucketGrid {
 public:
  /// A grid with no buckets: dim() is 0.
  BucketGrid() = default;

  /// Files items 0..n-1 over `box`: item i goes, in ascending order, into
  /// every bucket its box box_of(i) touches (a point is a zero-size box).
  template <class BoxOf>
  BucketGrid(const geom::BBox& box, int dim, size_t n, BoxOf box_of)
      : box_(box),
        dim_(dim),
        cell_w_(std::max(box.width(), 1e-9) / dim),
        cell_h_(std::max(box.height(), 1e-9) / dim),
        min_cell_(std::min(cell_w_, cell_h_)) {
    offsets_.assign(static_cast<size_t>(dim) * dim + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      ForEachBucket(box_of(i), [&](size_t b) { ++offsets_[b + 1]; });
    }
    for (size_t b = 1; b < offsets_.size(); ++b) offsets_[b] += offsets_[b - 1];
    std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
    ids_.resize(static_cast<size_t>(offsets_.back()));
    for (size_t i = 0; i < n; ++i) {
      ForEachBucket(box_of(i), [&](size_t b) {
        ids_[static_cast<size_t>(cursor[b]++)] = static_cast<int>(i);
      });
    }
  }

  /// floor(sqrt(n)) clamped to [1, max_dim].
  static int SqrtDim(size_t n, int max_dim) {
    return std::clamp(static_cast<int>(std::sqrt(static_cast<double>(n))), 1,
                      max_dim);
  }

  int dim() const { return dim_; }
  const geom::BBox& box() const { return box_; }
  double cell_w() const { return cell_w_; }
  double cell_h() const { return cell_h_; }
  double min_cell() const { return min_cell_; }

  /// The column (row) of coordinate x (y): floor((x - min_x) / cell_w),
  /// clamped to [0, dim - 1] in floating point before the cast, so every
  /// double maps to a column; NaN maps to 0.
  int CellX(double x) const { return Clamp((x - box_.min_x) / cell_w_); }
  int CellY(double y) const { return Clamp((y - box_.min_y) / cell_h_); }

  /// The ids in bucket (cx, cy), ascending.
  std::span<const int> Bucket(int cx, int cy) const {
    const size_t b = static_cast<size_t>(cy) * static_cast<size_t>(dim_) +
                     static_cast<size_t>(cx);
    return {ids_.data() + offsets_[b],
            static_cast<size_t>(offsets_[b + 1] - offsets_[b])};
  }

  /// Calls fn(id) for the ids of every bucket `box` touches, row by row.
  template <class Fn>
  void ForEachInBox(const geom::BBox& box, Fn&& fn) const {
    ForEachBucket(box, [&](size_t b) {
      for (int k = offsets_[b]; k < offsets_[b + 1]; ++k) fn(ids_[k]);
    });
  }

  /// Calls fn(id) for the ids of every bucket at Chebyshev distance exactly
  /// r from bucket (cx, cy), row by row and, in a row, by ascending column.
  template <class Fn>
  void ForEachInRing(int cx, int cy, int r, Fn&& fn) const {
    const int x0 = std::max(cx - r, 0), x1 = std::min(cx + r, dim_ - 1);
    const int y0 = std::max(cy - r, 0), y1 = std::min(cy + r, dim_ - 1);
    const auto scan = [&](int x, int y) {
      for (const int id : Bucket(x, y)) fn(id);
    };
    for (int y = y0; y <= y1; ++y) {
      if (y == cy - r || y == cy + r) {
        for (int x = x0; x <= x1; ++x) scan(x, y);
        continue;
      }
      if (cx - r >= 0) scan(cx - r, y);
      if (cx + r < dim_) scan(cx + r, y);
    }
  }

  /// The outermost ring around bucket (cx, cy) that holds a bucket.
  int MaxRing(int cx, int cy) const {
    return std::max(std::max(cx, dim_ - 1 - cx), std::max(cy, dim_ - 1 - cy));
  }

  /// A lower bound on the distance from a point p in the box to any item
  /// filed only in buckets at ring r or beyond around p's bucket. p lies
  /// in its own closed bucket (the clamped floor puts a point on a bucket
  /// wall in one of the buckets the wall bounds), and r - 1 whole buckets
  /// separate that bucket from ring r, so the bound is
  /// max(0, r - 1) * min_cell. A ring walk that has covered rings 0..r may
  /// stop once its best distance is at most RingClearance(r + 1).
  double RingClearance(int r) const { return std::max(0, r - 1) * min_cell_; }

 private:
  int Clamp(double q) const {
    // std::max(0.0, q) is 0 for a NaN q.
    return static_cast<int>(
        std::min(std::max(0.0, q), static_cast<double>(dim_ - 1)));
  }

  /// Calls fn(bucket) for every bucket `box` touches, row by row.
  template <class Fn>
  void ForEachBucket(const geom::BBox& box, Fn&& fn) const {
    const int x0 = CellX(box.min_x), x1 = CellX(box.max_x);
    const int y0 = CellY(box.min_y), y1 = CellY(box.max_y);
    for (int cy = y0; cy <= y1; ++cy) {
      const size_t row = static_cast<size_t>(cy) * static_cast<size_t>(dim_);
      for (int cx = x0; cx <= x1; ++cx) fn(row + static_cast<size_t>(cx));
    }
  }

  geom::BBox box_;
  int dim_ = 0;
  double cell_w_ = 1.0, cell_h_ = 1.0, min_cell_ = 1.0;
  std::vector<int> offsets_;  ///< dim * dim + 1 CSR offsets
  std::vector<int> ids_;      ///< item ids grouped by bucket, ascending
};

}  // namespace dtree::sub

#endif  // DTREE_SUBDIVISION_BUCKET_GRID_H_
