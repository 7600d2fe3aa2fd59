// Fixture: the status-exception-site rule must reject both exception forms
// of a Status outside src/util/parallel.cc. The failpoint name is
// registered, so only this rule fires.

#define CRASHSIM_FAILPOINT_THROW(name) (void)(name)

namespace crashsim {

struct Status {};
struct StatusException {
  explicit StatusException(Status) {}
};

void ThrowsThroughAFailpoint() {
  CRASHSIM_FAILPOINT_THROW("demo.site");  // MUST-FAIL
}

void ThrowsAStatus(Status status) {
  throw StatusException(status);  // MUST-FAIL
}

// Catching one is how a ParallelFor caller converts it back; that stays legal.
void CatchesAStatus() {
  try {
    ThrowsThroughAFailpoint();
  } catch (const StatusException&) {
  }
}

}  // namespace crashsim
