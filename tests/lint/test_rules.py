"""Per-rule coverage for simlint: positive, suppressed and clean cases."""

from __future__ import annotations

import pytest

from repro.lint import lint_source

#: A path inside a hot-path directory (activates SIM005).
HOT = "repro/mac/module.py"
#: A path outside the hot-path directories.
COLD = "repro/stats/module.py"


def codes(source: str, path: str = COLD) -> list[str]:
    return [d.code for d in lint_source(source, path)]


# -- SIM001: module-level random ----------------------------------------------


class TestSim001:
    def test_module_call_flagged(self):
        diags = lint_source("import random\nx = random.random()\n", COLD)
        assert [(d.code, d.line) for d in diags] == [("SIM001", 2)]

    def test_from_import_call_flagged(self):
        assert codes("from random import choice\nc = choice([1])\n") == ["SIM001"]

    def test_aliased_module_flagged(self):
        assert codes("import random as rnd\nx = rnd.gauss(0, 1)\n") == ["SIM001"]

    def test_seed_call_flagged(self):
        assert codes("import random\nrandom.seed(42)\n") == ["SIM001"]

    def test_suppressed(self):
        src = "import random\nx = random.random()  # simlint: disable=SIM001\n"
        assert codes(src) == []

    def test_clean_instance_rng(self):
        src = (
            "import random\n"
            "rng = random.Random(7)\n"
            "x = rng.random()\n"
        )
        assert codes(src) == []


# -- SIM002: wall clock -------------------------------------------------------


class TestSim002:
    def test_time_time_flagged(self):
        assert codes("import time\nt = time.time()\n") == ["SIM002"]

    def test_perf_counter_from_import_flagged(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert codes(src) == ["SIM002"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert codes(src) == ["SIM002"]

    def test_datetime_module_utcnow_flagged(self):
        src = "import datetime\nd = datetime.datetime.utcnow()\n"
        assert codes(src) == ["SIM002"]

    def test_suppressed(self):
        src = "import time\nt = time.time()  # simlint: disable=SIM002\n"
        assert codes(src) == []

    def test_clean_sleep_like_names_elsewhere(self):
        # time.sleep is blocking, not a clock read; only clock reads flag.
        assert codes("import time\ntime.sleep(1)\n") == []


# -- SIM003: constant bad delays ----------------------------------------------


class TestSim003:
    @pytest.mark.parametrize(
        "expr",
        ["-1", "-0.25", "float('nan')", "float('inf')", "math.nan"],
    )
    def test_bad_timeout_constants(self, expr):
        src = f"import math\ndef p(env):\n    yield env.timeout({expr})\n"
        assert codes(src) == ["SIM003"]

    def test_schedule_keyword_delay(self):
        assert codes("env.schedule(ev, delay=-2.0)\n") == ["SIM003"]

    def test_schedule_positional_delay(self):
        assert codes("env.schedule(ev, 1, float('nan'))\n") == ["SIM003"]

    def test_suppressed(self):
        src = "env.timeout(-1)  # simlint: disable=SIM003\n"
        assert codes(src) == []

    def test_clean_variable_delay_not_flagged(self):
        assert codes("def p(env, d):\n    yield env.timeout(d)\n") == []

    def test_clean_zero_and_positive(self):
        assert codes("env.timeout(0)\nenv.timeout(1.5)\n") == []

    def test_tests_directories_exempt(self):
        # Kernel tests feed deliberately-invalid delays to assert the
        # rejection path; the rule only polices simulation code.
        src = "def test_reject(env):\n    env.timeout(-1.0)\n"
        assert codes(src, "tests/des/test_kernel.py") == []
        assert codes(src, "repro/des/driver.py") == ["SIM003"]


# -- SIM004: mutable defaults -------------------------------------------------


class TestSim004:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()", "list()"])
    def test_mutable_default_flagged(self, default):
        assert codes(f"def f(x={default}):\n    return x\n") == ["SIM004"]

    def test_kwonly_default_flagged(self):
        assert codes("def f(*, x=[]):\n    return x\n") == ["SIM004"]

    def test_suppressed(self):
        src = "def f(x=[]):  # simlint: disable=SIM004\n    return x\n"
        assert codes(src) == []

    def test_clean_none_default(self):
        assert codes("def f(x=None):\n    return x or []\n") == []


# -- SIM005: set iteration in hot paths ---------------------------------------


class TestSim005:
    def test_direct_set_call_flagged_in_hot_path(self):
        src = "def f(ns):\n    for n in set(ns):\n        pass\n"
        assert codes(src, HOT) == ["SIM005"]

    def test_tracked_set_variable_flagged(self):
        src = "def f(ns):\n    s = set(ns)\n    for n in s:\n        pass\n"
        diags = lint_source(src, HOT)
        assert [(d.code, d.line) for d in diags] == [("SIM005", 3)]

    def test_keys_view_flagged(self):
        src = "def f(d):\n    for k in d.keys():\n        pass\n"
        assert codes(src, HOT) == ["SIM005"]

    def test_comprehension_over_set_flagged(self):
        src = "def f(ns):\n    return [n for n in set(ns)]\n"
        assert codes(src, HOT) == ["SIM005"]

    def test_suppressed(self):
        src = (
            "def f(ns):\n"
            "    for n in set(ns):  # simlint: disable=SIM005\n"
            "        pass\n"
        )
        assert codes(src, HOT) == []

    def test_sorted_wrapper_clean(self):
        src = "def f(ns):\n    for n in sorted(set(ns)):\n        pass\n"
        assert codes(src, HOT) == []

    def test_cold_path_clean(self):
        src = "def f(ns):\n    for n in set(ns):\n        pass\n"
        assert codes(src, COLD) == []

    def test_reassignment_to_list_clears_tracking(self):
        src = (
            "def f(ns):\n"
            "    s = set(ns)\n"
            "    s = sorted(s)\n"
            "    for n in s:\n"
            "        pass\n"
        )
        assert codes(src, HOT) == []

    def test_generator_inside_sorted_clean(self):
        # sorted() consumes the whole iterable: the set's order is gone.
        src = "def f(s):\n    return sorted(x.addr for x in set(s))\n"
        assert codes(src, HOT) == []

    def test_generator_inside_min_clean(self):
        src = "def f(s):\n    return min(x for x in set(s))\n"
        assert codes(src, HOT) == []

    def test_generator_inside_any_clean(self):
        src = "def f(s, t):\n    return any(x == t for x in set(s))\n"
        assert codes(src, HOT) == []

    def test_set_comp_inside_sorted_clean(self):
        src = "def f(s):\n    return sorted({x.addr for x in s})\n"
        assert codes(src, HOT) == []

    def test_listcomp_over_set_still_flagged(self):
        # Not wrapped in an order-insensitive consumer: order escapes.
        src = "def f(s):\n    return [x for x in set(s)]\n"
        assert codes(src, HOT) == ["SIM005"]

    def test_order_sensitive_consumer_still_flagged(self):
        # list() preserves the hash order; only the known order-insensitive
        # builtins sanitize.
        src = "def f(s):\n    return list(x for x in set(s))\n"
        assert codes(src, HOT) == ["SIM005"]


# -- SIM006: bypassing schedule() ---------------------------------------------


class TestSim006:
    def test_heappush_flagged(self):
        src = "from heapq import heappush\nheappush(env._queue, item)\n"
        assert codes(src) == ["SIM006"]

    def test_heapq_module_call_flagged(self):
        src = "import heapq\nheapq.heappush(env._queue, item)\n"
        assert codes(src) == ["SIM006"]

    def test_append_flagged(self):
        assert codes("env._queue.append(item)\n") == ["SIM006"]

    def test_assignment_flagged(self):
        assert codes("env._queue = []\n") == ["SIM006"]

    def test_suppressed(self):
        src = "env._queue.append(item)  # simlint: disable=SIM006\n"
        assert codes(src) == []

    def test_kernel_core_exempt(self):
        src = "from heapq import heappush\nheappush(self._queue, entry)\n"
        assert codes(src, "src/repro/des/core.py") == []

    def test_len_read_clean(self):
        assert codes("n = len(env._queue)\n") == []


# -- SIM007: silent blanket except --------------------------------------------


class TestSim007:
    def test_except_exception_pass_flagged(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert codes(src) == ["SIM007"]

    def test_bare_except_flagged(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert codes(src) == ["SIM007"]

    def test_base_exception_flagged(self):
        src = "try:\n    f()\nexcept BaseException:\n    ...\n"
        assert codes(src) == ["SIM007"]

    def test_tuple_containing_exception_flagged(self):
        src = "while True:\n    try:\n        f()\n    " \
              "except (ValueError, Exception):\n        continue\n"
        assert codes(src) == ["SIM007"]

    def test_docstring_only_body_flagged(self):
        src = 'try:\n    f()\nexcept Exception:\n    "ignored"\n'
        assert codes(src) == ["SIM007"]

    def test_narrow_swallow_not_flagged(self):
        src = "try:\n    f()\nexcept KeyError:\n    pass\n"
        assert codes(src) == []

    def test_blanket_with_handling_not_flagged(self):
        src = "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n"
        assert codes(src) == []

    def test_suppressed(self):
        src = (
            "try:\n    f()\n"
            "except Exception:  # simlint: disable=SIM007\n    pass\n"
        )
        assert codes(src) == []


# -- SIM008: malformed metric names -------------------------------------------


class TestSim008:
    def test_uppercase_flagged(self):
        assert codes('c = obs.counter("Mac.Sent")\n') == ["SIM008"]

    def test_space_flagged(self):
        assert codes('h = registry.histogram("mac dcf wait")\n') == ["SIM008"]

    def test_leading_dot_flagged(self):
        assert codes('g = gauge(".queue.depth")\n') == ["SIM008"]

    def test_trailing_dot_flagged(self):
        assert codes('g = gauge("queue.depth.")\n') == ["SIM008"]

    def test_leading_digit_flagged(self):
        assert codes('c = obs.counter("1mac.sent")\n') == ["SIM008"]

    def test_good_names_clean(self):
        src = (
            'a = obs.counter("mac.dcf.retransmissions")\n'
            'b = obs.gauge("queue.depth")\n'
            'c = obs.histogram("tcp.rtt")\n'
            'd = obs.counter("phy.frames.dropped_down")\n'
        )
        assert codes(src) == []

    def test_dynamic_name_not_flagged(self):
        # Only literal names are statically checkable; the registry
        # validates the rest at runtime.
        assert codes('c = obs.counter(name)\n') == []

    def test_unrelated_callables_not_flagged(self):
        src = 'from collections import Counter\nc = Counter("Ab Cd")\n'
        assert codes(src) == []

    def test_suppressed(self):
        src = 'c = obs.counter("Bad.Name")  # simlint: disable=SIM008\n'
        assert codes(src) == []


# -- SIM013: bare assert in production code -----------------------------------


class TestSim013:
    def test_assert_flagged_cold_path(self):
        diags = lint_source("def f(x):\n    assert x > 0\n", COLD)
        assert [(d.code, d.line) for d in diags] == [("SIM013", 2)]

    def test_assert_flagged_hot_path_mentions_hot_path(self):
        diags = lint_source("def f(x):\n    assert x is not None\n", HOT)
        assert [d.code for d in diags] == ["SIM013"]
        assert "hot-path" in diags[0].message

    def test_message_suggests_explicit_raise(self):
        diags = lint_source("assert ready\n", COLD)
        assert "python -O" in diags[0].message
        assert "raise" in diags[0].message

    def test_assert_with_message_still_flagged(self):
        # -O strips the whole statement, message or not.
        src = 'assert q, "queue must be non-empty"\n'
        assert codes(src) == ["SIM013"]

    def test_tests_exempt(self):
        src = "def test_f():\n    assert f() == 3\n"
        assert codes(src, path="tests/test_f.py") == []

    def test_explicit_raise_clean(self):
        src = (
            "def f(x):\n"
            "    if x <= 0:\n"
            "        raise ValueError(f'x must be positive, got {x}')\n"
        )
        assert codes(src, HOT) == []

    def test_suppressed(self):
        src = "assert invariant  # simlint: disable=SIM013\n"
        assert codes(src) == []


# -- SIM014: host clock in kernel/protocol code -------------------------------


class TestSim014:
    KERNEL = "src/repro/des/core.py"
    PROTO = "src/repro/mac/tdma.py"

    def test_time_time_in_kernel_flagged_alongside_sim002(self):
        diags = lint_source("import time\nt = time.time()\n", self.KERNEL)
        assert [d.code for d in diags] == ["SIM002", "SIM014"]

    def test_perf_counter_from_import_in_protocol_flagged(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert "SIM014" in codes(src, self.PROTO)

    def test_sim002_suppression_does_not_mask_sim014(self):
        # The whole point of the separate code: an existing SIM002
        # waiver cannot quietly admit a clock read into the kernel.
        src = "import time\nt = time.time()  # simlint: disable=SIM002\n"
        assert codes(src, self.KERNEL) == ["SIM014"]

    def test_obs_and_perf_packages_are_exempt(self):
        src = "import time\nt = time.perf_counter()  # simlint: disable=SIM002\n"
        assert codes(src, "src/repro/obs/introspect.py") == []
        assert codes(src, "src/repro/perf/campaign_scaling.py") == []

    def test_outside_repro_and_in_tests_exempt(self):
        src = "import time\nt = time.time()  # simlint: disable=SIM002\n"
        assert codes(src, "scripts/tool.py") == []
        assert codes(src, "tests/des/test_core.py") == []

    def test_aliased_module_flagged(self):
        src = "import time as clock\nt = clock.monotonic()  # simlint: disable=SIM002\n"
        assert codes(src, self.PROTO) == ["SIM014"]

    def test_non_clock_time_functions_clean(self):
        src = "import time\ns = time.strftime('%H')  # simlint: disable=SIM002\n"
        assert "SIM014" not in codes(src, self.KERNEL)

    def test_suppressed(self):
        src = "import time\nt = time.time()  # simlint: disable\n"
        assert codes(src, self.KERNEL) == []


# -- suppression mechanics ----------------------------------------------------


class TestSuppression:
    def test_bare_disable_silences_all(self):
        src = "import random\nx = random.random()  # simlint: disable\n"
        assert codes(src) == []

    def test_wrong_code_does_not_silence(self):
        src = "import random\nx = random.random()  # simlint: disable=SIM002\n"
        assert codes(src) == ["SIM001"]

    def test_multiple_codes(self):
        src = (
            "import random, time\n"
            "x = random.random() + time.time()"
            "  # simlint: disable=SIM001,SIM002\n"
        )
        assert codes(src) == []

    def test_diagnostic_format(self):
        diag = lint_source("import random\nx = random.random()\n", COLD)[0]
        assert diag.format().startswith(f"{COLD}:2:")
        assert "SIM001" in diag.format()
