// Fixture: the one file where a Status may travel as an exception — a
// ParallelFor shard body has no Status return channel.

#define CRASHSIM_FAILPOINT_THROW(name) (void)(name)

namespace crashsim {

void ShardBody() { CRASHSIM_FAILPOINT_THROW("demo.site"); }

}  // namespace crashsim
