/* CPU-time and clock-tick probes the OCaml Unix library does not expose:
   getrusage for the calling process and for its reaped children (the C
   compiler runs as a child of the program), and the /proc tick rate. */
#include <sys/resource.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static double seconds(struct timeval tv) { return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6; }

value repobench_cpu_times(value unit)
{
  (void)unit;
  struct rusage self, kids;
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  value r = caml_alloc_float_array(2);
  Store_double_flat_field(r, 0, seconds(self.ru_utime) + seconds(self.ru_stime));
  Store_double_flat_field(r, 1, seconds(kids.ru_utime) + seconds(kids.ru_stime));
  return r;
}

value repobench_clock_ticks(value unit)
{
  (void)unit;
  long t = sysconf(_SC_CLK_TCK);
  return Val_long(t > 0 ? t : 100);
}
