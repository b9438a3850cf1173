/*
 * osguard kernel-module ABI.
 *
 * Host-side stand-in for the in-kernel runtime the paper's §3.3 sketches:
 * `EmitKernelModuleSource` renders every verified guardrail against this
 * header, and the compile-check suite builds the result with
 * -Wall -Wextra -Werror to prove the emitted C is real, not an untested
 * pretty-print. The value helpers here are illustrative host stubs; the
 * bytecode interpreter (src/vm/vm.cc) is what executes guardrails.
 *
 * Requires a C11 compiler with GNU attribute support (gcc or clang).
 */

#ifndef OSGUARD_KMOD_H_
#define OSGUARD_KMOD_H_

#include <stdarg.h>
#include <stddef.h>

/* Value kind tags. */
enum {
  OSG_NIL = 0,
  OSG_INT = 1,
  OSG_FLOAT = 2,
  OSG_BOOL = 3,
  OSG_STR = 4,
  OSG_LIST = 5
};

typedef struct osg_value {
  int kind;
  long long i;
  double f;
  const void *h;
} osg_value;

/* Helper ids — mirror osguard::HelperId (src/dsl/builtins.h). */
enum {
  OSG_HELPER_LOAD = 0,
  OSG_HELPER_LOAD_OR = 1,
  OSG_HELPER_SAVE = 2,
  OSG_HELPER_INCR = 3,
  OSG_HELPER_EXISTS = 4,
  OSG_HELPER_OBSERVE = 5,
  OSG_HELPER_COUNT = 16,
  OSG_HELPER_SUM = 17,
  OSG_HELPER_MEAN = 18,
  OSG_HELPER_MIN = 19,
  OSG_HELPER_MAX = 20,
  OSG_HELPER_STDDEV = 21,
  OSG_HELPER_RATE = 22,
  OSG_HELPER_NEWEST = 23,
  OSG_HELPER_OLDEST = 24,
  OSG_HELPER_QUANTILE = 25,
  OSG_HELPER_ABS = 32,
  OSG_HELPER_SQRT = 33,
  OSG_HELPER_LOG = 34,
  OSG_HELPER_EXP = 35,
  OSG_HELPER_FLOOR = 36,
  OSG_HELPER_CEIL = 37,
  OSG_HELPER_POW = 38,
  OSG_HELPER_MIN2 = 39,
  OSG_HELPER_MAX2 = 40,
  OSG_HELPER_CLAMP = 41,
  OSG_HELPER_NOW = 48,
  OSG_HELPER_REPORT = 64,
  OSG_HELPER_REPLACE = 65,
  OSG_HELPER_RETRAIN = 66,
  OSG_HELPER_DEPRIORITIZE = 67,
  OSG_HELPER_UNKNOWN = 255
};

/* Non-finite float constants without pulling in <math.h>. */
#define OSG_INF (__builtin_inf())
#define OSG_NAN (__builtin_nan(""))

struct osg_ctx {
  const void *host; /* runtime-private */
};

/* ---- Value constructors ---- */

static inline osg_value osg_nil(void) {
  osg_value v = {OSG_NIL, 0, 0.0, 0};
  return v;
}

static inline osg_value osg_int(long long x) {
  osg_value v = {OSG_INT, 0, 0.0, 0};
  v.i = x;
  return v;
}

static inline osg_value osg_float(double x) {
  osg_value v = {OSG_FLOAT, 0, 0.0, 0};
  v.f = x;
  return v;
}

static inline osg_value osg_bool(int x) {
  osg_value v = {OSG_BOOL, 0, 0.0, 0};
  v.i = x != 0;
  return v;
}

static inline osg_value osg_str(const char *s) {
  osg_value v = {OSG_STR, 0, 0.0, 0};
  v.h = s;
  v.i = s != 0 && s[0] != '\0';
  return v;
}

/* Name-list constant: osg_namelist(2, "batch", "scan"). The in-kernel
 * runtime interns the names; this host stub only records arity. */
static inline osg_value osg_namelist(int n, ...) {
  va_list ap;
  osg_value v = {OSG_LIST, 0, 0.0, 0};
  int k;
  va_start(ap, n);
  for (k = 0; k < n; ++k) {
    (void)va_arg(ap, const char *);
  }
  va_end(ap);
  v.i = n != 0;
  return v;
}

static inline osg_value osg_list(const osg_value *elems, int n) {
  osg_value v = {OSG_LIST, 0, 0.0, 0};
  v.h = elems;
  v.i = n != 0;
  return v;
}

/* ---- Operator helpers (illustrative host semantics) ---- */

static inline int osg_truthy(osg_value v) {
  switch (v.kind) {
    case OSG_NIL:
      return 0;
    case OSG_FLOAT:
      return v.f != 0.0;
    default:
      return v.i != 0;
  }
}

static inline int osg_numeric(osg_value v, double *out) {
  if (v.kind == OSG_INT || v.kind == OSG_BOOL) {
    *out = (double)v.i;
    return 1;
  }
  if (v.kind == OSG_FLOAT) {
    *out = v.f;
    return 1;
  }
  return 0;
}

static inline osg_value osg_add(osg_value a, osg_value b) {
  double x, y;
  if (a.kind == OSG_INT && b.kind == OSG_INT) {
    return osg_int((long long)((unsigned long long)a.i + (unsigned long long)b.i));
  }
  if (osg_numeric(a, &x) && osg_numeric(b, &y)) {
    return osg_float(x + y);
  }
  return osg_nil();
}

static inline osg_value osg_sub(osg_value a, osg_value b) {
  double x, y;
  if (a.kind == OSG_INT && b.kind == OSG_INT) {
    return osg_int((long long)((unsigned long long)a.i - (unsigned long long)b.i));
  }
  if (osg_numeric(a, &x) && osg_numeric(b, &y)) {
    return osg_float(x - y);
  }
  return osg_nil();
}

static inline osg_value osg_mul(osg_value a, osg_value b) {
  double x, y;
  if (a.kind == OSG_INT && b.kind == OSG_INT) {
    return osg_int((long long)((unsigned long long)a.i * (unsigned long long)b.i));
  }
  if (osg_numeric(a, &x) && osg_numeric(b, &y)) {
    return osg_float(x * y);
  }
  return osg_nil();
}

static inline osg_value osg_div(osg_value a, osg_value b) {
  double x, y;
  if (osg_numeric(a, &x) && osg_numeric(b, &y) && y != 0.0) {
    return osg_float(x / y);
  }
  return osg_nil();
}

static inline osg_value osg_mod(osg_value a, osg_value b) {
  if (a.kind == OSG_INT && b.kind == OSG_INT && b.i != 0 && b.i != -1) {
    return osg_int(a.i % b.i);
  }
  return osg_nil();
}

static inline osg_value osg_neg(osg_value a) {
  if (a.kind == OSG_INT) {
    return osg_int((long long)(0ULL - (unsigned long long)a.i));
  }
  if (a.kind == OSG_FLOAT) {
    return osg_float(-a.f);
  }
  if (a.kind == OSG_BOOL) {
    return osg_int(a.i ? -1 : 0);
  }
  return osg_nil();
}

static inline osg_value osg_not(osg_value a) { return osg_bool(!osg_truthy(a)); }

static inline osg_value osg_lt(osg_value a, osg_value b) {
  double x, y;
  if (osg_numeric(a, &x) && osg_numeric(b, &y)) {
    return osg_bool(x < y);
  }
  return osg_nil();
}

static inline osg_value osg_le(osg_value a, osg_value b) {
  double x, y;
  if (osg_numeric(a, &x) && osg_numeric(b, &y)) {
    return osg_bool(x <= y);
  }
  return osg_nil();
}

static inline osg_value osg_gt(osg_value a, osg_value b) {
  double x, y;
  if (osg_numeric(a, &x) && osg_numeric(b, &y)) {
    return osg_bool(x > y);
  }
  return osg_nil();
}

static inline osg_value osg_ge(osg_value a, osg_value b) {
  double x, y;
  if (osg_numeric(a, &x) && osg_numeric(b, &y)) {
    return osg_bool(x >= y);
  }
  return osg_nil();
}

static inline osg_value osg_eq(osg_value a, osg_value b) {
  double x, y;
  if (osg_numeric(a, &x) && osg_numeric(b, &y)) {
    return osg_bool(x == y);
  }
  return osg_bool(a.kind == b.kind && a.h == b.h && a.i == b.i);
}

static inline osg_value osg_ne(osg_value a, osg_value b) {
  osg_value e = osg_eq(a, b);
  return osg_bool(!osg_truthy(e));
}

static inline osg_value osg_bad(osg_value a, osg_value b) {
  (void)a;
  (void)b;
  return osg_nil();
}

/* Helper-call escape into the monitor runtime. */
static inline osg_value osg_call(struct osg_ctx *ctx, int helper,
                                 const osg_value *args, int nargs) {
  (void)ctx;
  (void)helper;
  (void)args;
  (void)nargs;
  return osg_nil();
}

/* ---- Monitor + trigger registration ---- */

struct osg_monitor {
  const char *name;
  int severity;
  long long cooldown_ns;
  int hysteresis;
  osg_value (*rule)(struct osg_ctx *);
  osg_value (*action)(struct osg_ctx *);
  osg_value (*on_satisfy)(struct osg_ctx *);
};

enum {
  OSG_TRIG_TIMER = 0,
  OSG_TRIG_FUNCTION = 1,
  OSG_TRIG_ONCHANGE = 2
};

struct osg_trigger_reg {
  int kind;
  struct osg_monitor *monitor;
  const char *function_name;
  long long start_ns;
  long long interval_ns;
  long long stop_ns;
  const char *watch_key;
};

#define OSG_CAT2_(a, b) a##b
#define OSG_CAT_(a, b) OSG_CAT2_(a, b)

#define OSG_TRIGGER_TIMER(mon, start_ns_, interval_ns_, stop_ns_)             \
  static const struct osg_trigger_reg OSG_CAT_(osg_trig_, __LINE__)           \
      __attribute__((used)) = {OSG_TRIG_TIMER, &(mon), 0,                     \
                               (start_ns_), (interval_ns_), (stop_ns_), 0}

#define OSG_TRIGGER_FUNCTION(mon, fn)                                         \
  static const struct osg_trigger_reg OSG_CAT_(osg_trig_, __LINE__)           \
      __attribute__((used)) = {OSG_TRIG_FUNCTION, &(mon), #fn, 0, 0, 0, 0}

#define OSG_TRIGGER_ONCHANGE(mon, key)                                        \
  static const struct osg_trigger_reg OSG_CAT_(osg_trig_, __LINE__)           \
      __attribute__((used)) = {OSG_TRIG_ONCHANGE, &(mon), 0, 0, 0, 0, (key)}

#define OSG_MODULE(mon)                                                       \
  static struct osg_monitor *const OSG_CAT_(osg_module_entry_, __LINE__)      \
      __attribute__((used)) = &(mon)

#endif /* OSGUARD_KMOD_H_ */
