/* Scheduling controls for the load generator (Linux; no-ops elsewhere).

   Timer slack: Linux lets a sleeping select() wake up to 50 us after its
   timeout by default; an open-loop generator that sleeps until each
   request's due time would send that much late.

   CPU affinity: the generator keeps one CPU to itself and the system
   under test gets the others, so which of them shares a CPU with which
   is not left to the scheduler from run to run. */
#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#ifdef __linux__
#include <sched.h>
#include <sys/prctl.h>
#endif

value perfbench_set_timer_slack_ns(value ns)
{
#ifdef __linux__
  return Val_bool(prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0) == 0);
#else
  (void)ns;
  return Val_false;
#endif
}

/* The CPUs this process may run on, ascending. */
value perfbench_get_affinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(out);
#ifdef __linux__
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; c++)
      if (CPU_ISSET(c, &set)) n++;
  out = caml_alloc_tuple(n);
  for (int c = 0; c < CPU_SETSIZE && k < n; c++)
    if (CPU_ISSET(c, &set)) Store_field(out, k++, Val_int(c));
#else
  (void)unit;
  out = Atom(0);
#endif
  CAMLreturn(out);
}

value perfbench_set_affinity(value cpus)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) CPU_SET(Int_val(Field(cpus, i)), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)cpus;
  return Val_false;
#endif
}
