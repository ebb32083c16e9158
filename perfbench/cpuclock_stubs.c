/* The CPU clock of a whole process: every thread it has run, those that
   have exited included, to the nanosecond. */

#define _POSIX_C_SOURCE 200809L
#include <sys/types.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

value perfbench_process_cpu_s(value pid)
{
  clockid_t clock;
  struct timespec ts;
  if (clock_getcpuclockid((pid_t)Int_val(pid), &clock) != 0
      || clock_gettime(clock, &ts) != 0)
    caml_failwith("process CPU clock unavailable");
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
