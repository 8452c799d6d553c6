// Known-bad fixture for lint_invariants.py's `assert` rule:
// both the include and the call must be flagged.  Never compiled — the
// unit test only greps it.

#include <cassert>

namespace conn {

int Clamp(int v) {
  assert(v >= 0);
  return v;
}

}  // namespace conn
