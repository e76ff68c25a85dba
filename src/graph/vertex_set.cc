#include "graph/vertex_set.h"

#include <cstdio>
#include <cstdlib>

namespace mintri {

VertexSet VertexSet::All(int capacity) {
  VertexSet s(capacity);
  s.ResetAll(capacity);
  return s;
}

VertexSet VertexSet::Single(int capacity, int v) {
  VertexSet s(capacity);
  s.Insert(v);
  return s;
}

VertexSet VertexSet::Of(int capacity, std::initializer_list<int> vs) {
  VertexSet s(capacity);
  for (int v : vs) s.Insert(v);
  return s;
}

VertexSet VertexSet::FromVector(int capacity, const std::vector<int>& vs) {
  VertexSet s(capacity);
  for (int v : vs) s.Insert(v);
  return s;
}

void VertexSet::Reset(int capacity) {
  capacity_ = capacity;
  words_.assign((capacity + 63) / 64, 0);
  hash_ = kEmptyHash;
  hash_valid_ = true;
}

void VertexSet::ResetAll(int capacity) {
  capacity_ = capacity;
  words_.resize((capacity + 63) / 64);
  bitset::FillOnes(words_.data(), words_.size(), bitset::TailMask(capacity));
  hash_valid_ = false;
}

void VertexSet::AssignUnionOf(const VertexSet& a, const VertexSet& b) {
  a.CheckSameCapacity(b, "AssignUnionOf");
  capacity_ = a.capacity_;
  words_.resize(a.words_.size());
  bitset::AssignUnion(words_.data(), a.words_.data(), b.words_.data(),
                      words_.size());
  hash_valid_ = false;
}

void VertexSet::AssignComplementOf(const VertexSet& s) {
  capacity_ = s.capacity_;
  words_.resize(s.words_.size());
  bitset::ComplementInto(words_.data(), s.words_.data(), words_.size(),
                         bitset::TailMask(capacity_));
  hash_valid_ = false;
}

bool VertexSet::Empty() const {
  return bitset::IsZero(words_.data(), words_.size());
}

int VertexSet::Count() const {
  return bitset::Popcount(words_.data(), words_.size());
}

int VertexSet::First() const {
  return bitset::FirstSet(words_.data(), words_.size());
}

bool VertexSet::IsSubsetOf(const VertexSet& other) const {
  CheckSameCapacity(other, "IsSubsetOf");
  return bitset::IsSubset(words_.data(), other.words_.data(), words_.size());
}

bool VertexSet::Intersects(const VertexSet& other) const {
  CheckSameCapacity(other, "Intersects");
  return bitset::Intersects(words_.data(), other.words_.data(),
                            words_.size());
}

void VertexSet::UnionWith(const VertexSet& other) {
  CheckSameCapacity(other, "UnionWith");
  bitset::UnionInto(words_.data(), other.words_.data(), words_.size());
  hash_valid_ = false;
}

void VertexSet::IntersectWith(const VertexSet& other) {
  CheckSameCapacity(other, "IntersectWith");
  bitset::IntersectInto(words_.data(), other.words_.data(), words_.size());
  hash_valid_ = false;
}

void VertexSet::MinusWith(const VertexSet& other) {
  CheckSameCapacity(other, "MinusWith");
  bitset::MinusInto(words_.data(), other.words_.data(), words_.size());
  hash_valid_ = false;
}

VertexSet VertexSet::Union(const VertexSet& other) const {
  VertexSet s = *this;
  s.UnionWith(other);
  return s;
}

VertexSet VertexSet::Intersect(const VertexSet& other) const {
  VertexSet s = *this;
  s.IntersectWith(other);
  return s;
}

VertexSet VertexSet::Minus(const VertexSet& other) const {
  VertexSet s = *this;
  s.MinusWith(other);
  return s;
}

VertexSet VertexSet::Complement() const {
  VertexSet s;
  s.AssignComplementOf(*this);
  return s;
}

VertexSet VertexSet::Relabeled(const std::vector<int>& map,
                               int capacity) const {
  VertexSet s(capacity);
  ForEach([&](int v) { s.Insert(map[v]); });
  return s;
}

std::vector<int> VertexSet::ToVector() const {
  std::vector<int> out;
  out.reserve(Count());
  ForEach([&](int v) { out.push_back(v); });
  return out;
}

std::string VertexSet::ToString() const {
  std::string out = "{";
  bool first = true;
  ForEach([&](int v) {
    if (!first) out += ",";
    out += std::to_string(v);
    first = false;
  });
  out += "}";
  return out;
}

void VertexSet::RecomputeHash() const {
  uint64_t h = kEmptyHash;
  ForEach([&](int v) { h ^= MixVertex(v); });
  hash_ = h;
  hash_valid_ = true;
}

void VertexSet::CapacityMismatch(const VertexSet& other,
                                 const char* op) const {
  std::fprintf(stderr,
               "VertexSet capacity mismatch in %s: %d vs %d "
               "(binary operations require one shared universe)\n",
               op, capacity_, other.capacity_);
  std::abort();
}

}  // namespace mintri
