// Compiled, never linked, by the nodiscard_* ctests (tests/CMakeLists.txt)
// with the project's flags. Plain, every way of consuming a Status or a
// Result<T> must compile clean; with -DIRONSAFE_DISCARD, each of the two
// dropped values must be a compile error.
#include "common/result.h"
#include "common/status.h"

namespace ironsafe {

Status Fallible();
Result<int> FallibleValue();

Status Consume() {
  RETURN_IF_ERROR(Fallible());
  ASSIGN_OR_RETURN(int v, FallibleValue());
  Status st = Fallible();
  if (!FallibleValue().ok() || v == 0) return st;
  (void)Fallible();
  (void)FallibleValue();
  return Fallible();
}

#ifdef IRONSAFE_DISCARD
void Discard() {
  Fallible();
  FallibleValue();
}
#endif

}  // namespace ironsafe
