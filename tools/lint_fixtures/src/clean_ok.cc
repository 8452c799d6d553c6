// Clean fixture: sanctioned idioms only — no rule may flag
// this file.  Never compiled.

namespace conn {

int Checked(int v) {
  CONN_CHECK(v >= 0);
  Mutex mu;
  MutexLock hold(mu);
  return v;
}

}  // namespace conn
