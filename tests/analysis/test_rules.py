"""Rule unit tests: one positive and one negative snippet per rule."""

import textwrap

from repro.analysis import analyze_source
from repro.analysis.engine import Project, parse_source, run_rules
from repro.analysis.tcb import TCBForbiddenImportRule


def rules_of(findings):
    return [f.rule for f in findings]


def analyze(snippet, module="repro.sim.example"):
    return analyze_source(textwrap.dedent(snippet), module=module)


# -- DET001: wall clock --------------------------------------------------------

class TestWallClock:
    def test_time_time_flagged(self):
        findings = analyze("""
            import time

            def stamp(report):
                report["at"] = time.time()
        """)
        assert rules_of(findings) == ["DET001"]
        assert findings[0].line == 5

    def test_datetime_now_flagged(self):
        findings = analyze("""
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)
        assert rules_of(findings) == ["DET001"]

    def test_perf_counter_flagged(self):
        assert rules_of(analyze("""
            import time

            def tick():
                return time.perf_counter()
        """)) == ["DET001"]

    def test_virtual_clock_not_flagged(self):
        assert analyze("""
            def stamp(clock, report):
                report["at"] = clock.now()
        """) == []

    def test_bench_modules_exempt(self):
        assert analyze("""
            import time

            def wall():
                return time.time()
        """, module="repro.bench.registry") == []


# -- DET002: ambient entropy ---------------------------------------------------

class TestAmbientEntropy:
    def test_os_urandom_flagged(self):
        assert rules_of(analyze("""
            import os

            def nonce():
                return os.urandom(20)
        """)) == ["DET002"]

    def test_global_random_flagged(self):
        assert rules_of(analyze("""
            import random

            def jitter():
                return random.random()
        """)) == ["DET002"]

    def test_unseeded_random_instance_flagged(self):
        assert rules_of(analyze("""
            import random

            def rng():
                return random.Random()
        """)) == ["DET002"]

    def test_seeded_random_instance_ok(self):
        assert analyze("""
            import random

            def rng(seed):
                return random.Random(seed)
        """) == []

    def test_deterministic_rng_ok(self):
        assert analyze("""
            from repro.sim.rng import DeterministicRNG

            def rng(seed):
                return DeterministicRNG(seed)
        """) == []

    def test_exempt_wrapper_module(self):
        assert analyze("""
            import os

            def entropy():
                return os.urandom(32)
        """, module="repro.sim.rng") == []


# -- DET003: unordered iteration ----------------------------------------------

class TestUnorderedIteration:
    def test_set_for_loop_in_exporter_flagged(self):
        findings = analyze("""
            def export(report, machines):
                for machine in set(machines):
                    report.append(machine)
        """, module="repro.obs.export")
        assert rules_of(findings) == ["DET003"]

    def test_set_comprehension_iter_flagged(self):
        assert rules_of(analyze("""
            def export(spans):
                return [s for s in {x.machine for x in spans}]
        """, module="repro.tools.report")) == ["DET003"]

    def test_join_over_set_flagged(self):
        assert rules_of(analyze("""
            def export(names):
                return ",".join({n.lower() for n in names})
        """, module="repro.faults.campaign")) == ["DET003"]

    def test_sorted_set_ok(self):
        assert analyze("""
            def export(report, machines):
                for machine in sorted(set(machines)):
                    report.append(machine)
        """, module="repro.obs.export") == []

    def test_non_exporter_module_not_flagged(self):
        assert analyze("""
            def scratch(machines):
                for machine in set(machines):
                    machine.reset()
        """, module="repro.hw.machine") == []


# -- DET004: id() sort keys ----------------------------------------------------

class TestIdSortKey:
    def test_key_id_flagged(self):
        assert rules_of(analyze("""
            def order(spans):
                return sorted(spans, key=id)
        """)) == ["DET004"]

    def test_lambda_id_flagged(self):
        assert rules_of(analyze("""
            def order(spans):
                spans.sort(key=lambda s: (id(s), s.name))
        """)) == ["DET004"]

    def test_stable_key_ok(self):
        assert analyze("""
            def order(spans):
                return sorted(spans, key=lambda s: s.span_id)
        """) == []


# -- SEC001: secret flow -------------------------------------------------------

class TestSecretFlow:
    def test_unseal_to_print_flagged(self):
        findings = analyze("""
            def debug(tpm, blob):
                secret = tpm.unseal(blob)
                print("got", secret)
        """)
        assert rules_of(findings) == ["SEC001"]

    def test_unseal_into_trace_event_flagged(self):
        assert rules_of(analyze("""
            def run(ctx, trace, blob):
                key = ctx.tpm.unseal(blob)
                trace.emit(0.0, "pal", "unseal", value=key)
        """)) == ["SEC001"]

    def test_taint_propagates_through_assignment(self):
        assert rules_of(analyze("""
            def run(ctx, blob, log):
                secret = ctx.tpm.unseal(blob)
                derived = secret + b"-suffix"
                log.info(derived)
        """)) == ["SEC001"]

    def test_secret_in_exception_message_flagged(self):
        assert rules_of(analyze("""
            def check(tpm, blob):
                secret = tpm.unseal(blob)
                if not secret:
                    raise ValueError(f"bad secret {secret!r}")
        """)) == ["SEC001"]

    def test_digest_of_secret_ok(self):
        assert analyze("""
            def run(ctx, trace, blob, sha1):
                key = ctx.tpm.unseal(blob)
                trace.emit(0.0, "pal", "unseal", digest=sha1(key).hex())
        """) == []

    def test_length_of_secret_ok(self):
        assert analyze("""
            def run(ctx, blob):
                key = ctx.tpm.unseal(blob)
                print("unsealed", len(key), "bytes")
        """) == []

    def test_unrelated_logging_ok(self):
        assert analyze("""
            def run(ctx, blob, log):
                key = ctx.tpm.unseal(blob)
                log.info("unseal completed")
                return key
        """) == []

    def test_raise_of_name_bound_from_tainted_fstring_flagged(self):
        # The leak hides one binding away: the f-string taints ``err``,
        # and ``raise err`` publishes it.
        assert rules_of(analyze("""
            def check(tpm, blob):
                secret = tpm.unseal(blob)
                err = ValueError(f"bad secret {secret!r}")
                raise err
        """)) == ["SEC001"]

    def test_raise_of_sanitized_message_ok(self):
        assert analyze("""
            def check(tpm, blob, sha1):
                secret = tpm.unseal(blob)
                err = ValueError(f"bad secret, digest {sha1(secret)}")
                raise err
        """) == []

    def test_augmented_accumulation_flagged(self):
        # ``+=`` in a loop re-binds the accumulator from itself plus the
        # secret; the taint must survive the self-reference.
        assert rules_of(analyze("""
            def collect(tpm, blobs, log):
                out = b""
                for blob in blobs:
                    out += tpm.unseal(blob)
                log.info(out)
        """)) == ["SEC001"]

    def test_augmented_accumulation_of_lengths_ok(self):
        assert analyze("""
            def collect(tpm, blobs, log):
                total = 0
                for blob in blobs:
                    key = tpm.unseal(blob)
                    total += len(key)
                log.info(total)
        """) == []

    def test_hex_is_an_encoding_not_a_digest(self):
        # ``.hex()`` of a secret is the secret; only real measurement
        # functions (sha1/len/...) sanitize.
        assert rules_of(analyze("""
            def run(tpm, blob):
                key = tpm.unseal(blob)
                print(key.hex())
        """)) == ["SEC001"]

    def test_taint_defined_below_its_use_in_a_loop_flagged(self):
        # A single top-down sweep misses this: the tainting assignment
        # sits below the re-binding that feeds the sink.
        assert rules_of(analyze("""
            def churn(tpm, blobs, log):
                for blob in blobs:
                    copy = key
                    log.info(copy)
                    key = tpm.unseal(blob)
        """)) == ["SEC001"]

    def test_for_target_bound_from_a_source_flagged(self):
        # Every chunk of an unsealed blob is as secret as the blob.
        findings = analyze("""
            def dump(tpm, blob, log):
                for chunk in tpm.unseal(blob):
                    log.info(chunk)
        """)
        assert rules_of(findings) == ["SEC001"]
        assert findings[0].line == 4

    def test_call_into_non_forwarding_function_is_clean(self):
        # ``wrap`` resolves to a project function whose summary does not
        # forward its parameter, so ``y`` carries no secret.
        assert analyze("""
            def wrap(value):
                return b"constant"

            def run(tpm, blob, log):
                secret = tpm.unseal(blob)
                y = wrap(secret)
                log.info(y)
        """) == []

    def test_call_into_forwarding_function_flagged(self):
        findings = analyze("""
            def wrap(value):
                return b"<" + value + b">"

            def run(tpm, blob, log):
                secret = tpm.unseal(blob)
                y = wrap(secret)
                log.info(y)
        """)
        assert rules_of(findings) == ["SEC001"]
        assert findings[0].line == 8


# -- TCB001: forbidden imports (needs a multi-file project) --------------------

def make_project(tmp_path, files):
    sources = []
    for relpath, text in sorted(files.items()):
        module = relpath.replace("src/", "").replace("/", ".")[: -len(".py")]
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        sources.append(parse_source(textwrap.dedent(text), relpath, module))
    return Project(root=tmp_path, files=sources)


class TestTCBAudit:
    def test_osim_import_from_pal_module_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/pal.py": "from repro.osim.kernel import UntrustedKernel\n",
            "src/repro/osim/kernel.py": "class UntrustedKernel:\n    pass\n",
        })
        findings = run_rules(project, [TCBForbiddenImportRule()])
        assert rules_of(findings) == ["TCB001"]
        assert "repro.osim.kernel" in findings[0].message

    def test_function_local_import_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/slb_core.py": (
                "def execute():\n"
                "    from repro.obs.spans import ObservabilityHub\n"
                "    return ObservabilityHub\n"
            ),
            "src/repro/obs/spans.py": "class ObservabilityHub:\n    pass\n",
        })
        findings = run_rules(project, [TCBForbiddenImportRule()])
        assert rules_of(findings) == ["TCB001"]
        assert findings[0].line == 2

    def test_type_checking_import_exempt(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/pal.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from repro.osim.kernel import UntrustedKernel\n"
            ),
            "src/repro/osim/kernel.py": "class UntrustedKernel:\n    pass\n",
        })
        assert run_rules(project, [TCBForbiddenImportRule()]) == []

    def test_allowed_closure_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/pal.py": "from repro.crypto.sha1 import sha1\n",
            "src/repro/crypto/sha1.py": "def sha1(data):\n    return data\n",
            "src/repro/osim/kernel.py": "import repro.obs\n",  # outside closure
        })
        assert run_rules(project, [TCBForbiddenImportRule()]) == []

    def test_transitive_reach_flagged(self, tmp_path):
        # pal -> tpm.helper (allowed prefix) -> osim: the boundary edge is
        # inside tpm.helper, and that is where the finding lands.
        project = make_project(tmp_path, {
            "src/repro/core/pal.py": "from repro.tpm.helper import seal\n",
            "src/repro/tpm/helper.py": (
                "from repro.osim.kernel import UntrustedKernel\n"
                "def seal():\n    pass\n"
            ),
            "src/repro/osim/kernel.py": "class UntrustedKernel:\n    pass\n",
        })
        findings = run_rules(project, [TCBForbiddenImportRule()])
        assert rules_of(findings) == ["TCB001"]
        assert findings[0].path == "src/repro/tpm/helper.py"
