// Clean shapes that look like container construction but do not allocate:
// references, pointers, by-value parameter types, default construction,
// nested names and a lambda's trailing return type.
#include <vector>

#include "api_stub.hpp"

namespace containers_fx_good {

// The halo packers' shape: the caller owns the buffer and passes it in.
FTR_HOT void pack_column_into(const double* col, int n, std::vector<double>& v) {
  for (int i = 0; i < n; ++i) v[static_cast<std::vector<double>::size_type>(i)] = col[i];
}

FTR_HOT double hot_param(std::vector<double> v, int i) { return v[static_cast<unsigned long>(i)]; }

FTR_HOT double hot_views(const std::vector<double>& a, std::vector<double>* out,
                         const std::vector<std::vector<double>>& rows) {
  const std::vector<double>& alias = a;
  std::vector<double>* sink = out;
  std::vector<double> empty;
  std::vector<double> none{};
  auto first = [&rows]() -> const std::vector<double>& { return rows.front(); };
  auto nothing = []() -> std::vector<double> { return {}; };
  for (const std::vector<double>& r : rows) (*sink)[0] += r[0];
  return alias[0] + first()[0] +
         static_cast<double>(empty.size() + none.size() + nothing().size());
}

}  // namespace containers_fx_good
