// FTL003 seed: an FTR_HOT kernel that reaches container growth through a
// helper — the violation is transitive and reported at the allocation site.
#include <map>
#include <string>
#include <vector>

#include "api_stub.hpp"

namespace {

void accumulate(std::vector<double>* out, double v) {
  out->push_back(v);  // EXPECT: FTL003
}

FTR_HOT void hot_sweep(const double* row, int n, std::vector<double>* out) {
  for (int i = 0; i < n; ++i) accumulate(out, row[i] * 0.5);
}

FTR_HOT double hot_direct(int n) {
  double* scratch = new double[8];  // EXPECT: FTL003
  double acc = 0;
  for (int i = 0; i < n && i < 8; ++i) acc += scratch[i];
  delete[] scratch;
  return acc;
}

// Owning containers constructed with arguments allocate too: declarations
// with parentheses or braces, and temporaries.
FTR_HOT double hot_containers(int n) {
  std::vector<double> tmp(static_cast<unsigned long>(n));  // EXPECT: FTL003
  std::vector<int> init{1, 2, 3};  // EXPECT: FTL003
  std::string label(8, 'x');  // EXPECT: FTL003
  const std::map<int, std::vector<double>> by_grid{{0, {}}};  // EXPECT: FTL003
  const double t = std::vector<double>(4, 1.0).back();  // EXPECT: FTL003
  return tmp.back() + init.back() + label.size() + by_grid.size() + t;
}

}  // namespace
