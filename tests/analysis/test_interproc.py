"""Interprocedural rule tests: SEC002 cross-function secret flow,
ISO001/ISO002 tenant isolation, RACE001 scheduler sharing — one
positive and one negative synthetic project per behaviour."""

import textwrap

from repro.analysis.engine import Project, parse_source, run_rules
from repro.analysis.interproc import (
    SECRET_TAINT,
    InterproceduralSecretFlowRule,
    TaintAnalysis,
)
from repro.analysis.isolation import (
    SNAPSHOT_TAINT,
    UNTENANTED_TAINT,
    TenantBoundAccessRule,
    TenantSnapshotLeakRule,
)
from repro.analysis.races import SchedulerSharedStateRule, find_spawned_bodies
from repro.analysis.secret_flow import SecretToSinkRule


def make_project(tmp_path, files):
    sources = []
    for relpath, text in sorted(files.items()):
        module = relpath.replace("src/", "").replace("/", ".")[: -len(".py")]
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        sources.append(parse_source(textwrap.dedent(text), relpath, module))
    return Project(root=tmp_path, files=sources)


def rules_of(findings):
    return [f.rule for f in findings]


def sec002(tmp_path, files):
    return run_rules(make_project(tmp_path, files),
                     [InterproceduralSecretFlowRule()])


class TestSEC002:
    def test_wrapped_secret_reaching_log_flagged(self, tmp_path):
        findings = sec002(tmp_path, {
            "src/repro/sim/keys.py": """
                def load_key(ctx):
                    return ctx.tpm.unseal(ctx.blob)
            """,
            "src/repro/sim/report.py": """
                from repro.sim.keys import load_key

                def report(ctx, log):
                    log.info(load_key(ctx))
            """,
        })
        assert rules_of(findings) == ["SEC002"]
        assert findings[0].path == "src/repro/sim/report.py"
        assert "secret from another function" in findings[0].message

    def test_digest_of_wrapped_secret_is_clean(self, tmp_path):
        assert sec002(tmp_path, {
            "src/repro/sim/keys.py": """
                def load_key(ctx):
                    return ctx.tpm.unseal(ctx.blob)
            """,
            "src/repro/sim/report.py": """
                from repro.sim.keys import load_key
                from repro.crypto.sha1 import sha1

                def report(ctx, log):
                    log.info(sha1(load_key(ctx)))
            """,
        }) == []

    def test_intra_procedural_flow_left_to_sec001(self, tmp_path):
        # Source and sink in one function is SEC001's finding; SEC002
        # stays silent so each leak is reported exactly once.
        assert sec002(tmp_path, {
            "src/repro/sim/leak.py": """
                def leak(ctx, log):
                    log.info(ctx.tpm.unseal(ctx.blob))
            """,
        }) == []

    def test_for_target_flow_left_to_sec001(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/sim/dump.py": """
                def dump(tpm, blob, log):
                    for chunk in tpm.unseal(blob):
                        log.info(chunk)
            """,
        })
        findings = run_rules(
            project, [SecretToSinkRule(), InterproceduralSecretFlowRule()]
        )
        assert rules_of(findings) == ["SEC001"]

    def test_param_forwarding_chain_flagged(self, tmp_path):
        # decode() forwards its parameter to its return value, so the
        # secret survives one more hop before the sink.
        findings = sec002(tmp_path, {
            "src/repro/sim/chain.py": """
                def decode(raw):
                    return raw

                def load(ctx):
                    return ctx.tpm.unseal(ctx.blob)

                def report(ctx, log):
                    log.info(decode(load(ctx)))
            """,
        })
        assert rules_of(findings) == ["SEC002"]

    def test_secret_passed_into_publishing_helper_flagged(self, tmp_path):
        findings = sec002(tmp_path, {
            "src/repro/sim/pub.py": """
                def publish(log, value):
                    log.info(value)

                def load(ctx):
                    return ctx.tpm.unseal(ctx.blob)

                def report(ctx, log):
                    publish(log, load(ctx))
            """,
        })
        assert rules_of(findings) == ["SEC002"]
        assert "publishes it" in findings[0].message

    def test_secret_attribute_store_connects_methods(self, tmp_path):
        findings = sec002(tmp_path, {
            "src/repro/sim/stash.py": """
                class Session:
                    def load(self, ctx):
                        self.key = ctx.tpm.unseal(ctx.blob)

                    def report(self, log):
                        log.info(self.key)
            """,
        })
        assert rules_of(findings) == ["SEC002"]

    def test_public_half_of_keypair_is_clean(self, tmp_path):
        assert sec002(tmp_path, {
            "src/repro/sim/pubkey.py": """
                def make_keys(rng):
                    return generate_rsa_keypair(rng)

                def announce(rng, log):
                    keys = make_keys(rng)
                    log.info(keys.public)
            """,
        }) == []

    def test_wrapped_secret_in_exception_flagged(self, tmp_path):
        findings = sec002(tmp_path, {
            "src/repro/sim/err.py": """
                def load(ctx):
                    return ctx.tpm.unseal(ctx.blob)

                def check(ctx):
                    key = load(ctx)
                    raise ValueError(key)
            """,
        })
        assert rules_of(findings) == ["SEC002"]
        assert "exception" in findings[0].message


def iso001(tmp_path, files):
    return run_rules(make_project(tmp_path, files), [TenantBoundAccessRule()])


class TestISO001:
    def test_direct_chip_call_in_vtpm_flagged(self, tmp_path):
        findings = iso001(tmp_path, {
            "src/repro/vtpm/bad.py": """
                def clobber(machine):
                    machine.tpm.nv_write(7, b"x")
            """,
        })
        assert rules_of(findings) == ["ISO001"]
        assert "bypasses the tenant partition" in findings[0].message

    def test_private_chip_entry_point_flagged(self, tmp_path):
        findings = iso001(tmp_path, {
            "src/repro/dist/bad.py": """
                def clobber(machine):
                    machine.tpm._seal(b"x")
            """,
        })
        assert rules_of(findings) == ["ISO001"]

    def test_untenanted_interface_flagged(self, tmp_path):
        findings = iso001(tmp_path, {
            "src/repro/vtpm/bad.py": """
                def session(machine):
                    return machine.tpm.interface(2)
            """,
        })
        assert rules_of(findings) == ["ISO001"]
        assert "tenant=" in findings[0].message

    def test_tenant_none_interface_flagged(self, tmp_path):
        findings = iso001(tmp_path, {
            "src/repro/vtpm/bad.py": """
                def session(machine):
                    return machine.tpm.interface(2, tenant=None)
            """,
        })
        assert rules_of(findings) == ["ISO001"]

    def test_tenant_bound_interface_is_clean(self, tmp_path):
        assert iso001(tmp_path, {
            "src/repro/vtpm/good.py": """
                def session(machine, tenant):
                    return machine.tpm.interface(2, tenant=tenant)
            """,
        }) == []

    def test_helper_returning_untenanted_interface_flagged(self, tmp_path):
        # Hiding the acquisition in an out-of-scope module does not
        # help: the call graph resolves the helper.
        findings = iso001(tmp_path, {
            "src/repro/hw/helpers.py": """
                def grab_session(machine):
                    return machine.tpm.interface(0)
            """,
            "src/repro/vtpm/lazy.py": """
                from repro.hw.helpers import grab_session

                def write(machine, data):
                    iface = grab_session(machine)
                    iface.store(data)
            """,
        })
        assert rules_of(findings) == ["ISO001"]
        assert findings[0].path == "src/repro/vtpm/lazy.py"
        assert "grab_session" in findings[0].message

    def test_helper_returning_locally_bound_interface_flagged(self, tmp_path):
        # Binding the untenanted interface to a local before returning
        # it does not hide it.
        findings = iso001(tmp_path, {
            "src/repro/hw/helpers.py": """
                def grab_session(machine):
                    iface = machine.tpm.interface(4)
                    return iface
            """,
            "src/repro/vtpm/lazy.py": """
                from repro.hw.helpers import grab_session

                def write(machine, data):
                    grab_session(machine).store(data)
            """,
        })
        assert rules_of(findings) == ["ISO001"]
        assert findings[0].path == "src/repro/vtpm/lazy.py"
        assert "grab_session" in findings[0].message

    def test_hardware_owner_code_is_out_of_scope(self, tmp_path):
        # The platform legitimately owns the chip.
        assert iso001(tmp_path, {
            "src/repro/hw/owner.py": """
                def provision(machine):
                    machine.tpm.nv_write(7, b"x")
                    return machine.tpm.interface(2)
            """,
        }) == []


def iso002(tmp_path, files):
    return run_rules(make_project(tmp_path, files), [TenantSnapshotLeakRule()])


class TestISO002:
    def test_snapshot_logged_flagged(self, tmp_path):
        findings = iso002(tmp_path, {
            "src/repro/vtpm/migrate.py": """
                def migrate(mux, log, tenant):
                    snap = mux.export_tenant(tenant)
                    log.info(snap)
            """,
        })
        assert rules_of(findings) == ["ISO002"]
        assert "tenant snapshot material" in findings[0].message

    def test_snapshot_persisted_to_nv_flagged(self, tmp_path):
        findings = iso002(tmp_path, {
            "src/repro/vtpm/persist.py": """
                def stash(mux, iface, tenant):
                    snap = mux.export_tenant(tenant)
                    iface.nv_write(3, snap)
            """,
        })
        assert rules_of(findings) == ["ISO002"]

    def test_snapshot_crossing_functions_flagged(self, tmp_path):
        findings = iso002(tmp_path, {
            "src/repro/vtpm/a.py": """
                def take(mux, tenant):
                    return mux.export_tenant(tenant)
            """,
            "src/repro/vtpm/b.py": """
                from repro.vtpm.a import take

                def audit(mux, log, tenant):
                    log.info(take(mux, tenant))
            """,
        })
        assert rules_of(findings) == ["ISO002"]
        assert findings[0].path == "src/repro/vtpm/b.py"

    def test_migration_path_is_clean(self, tmp_path):
        assert iso002(tmp_path, {
            "src/repro/vtpm/migrate.py": """
                def migrate(src, dst, tenant):
                    snap = src.export_tenant(tenant)
                    dst.import_tenant(snap)
                    src.remove_tenant(tenant)
            """,
        }) == []

    def test_snapshot_digest_is_clean(self, tmp_path):
        assert iso002(tmp_path, {
            "src/repro/vtpm/audit.py": """
                from repro.crypto.sha1 import sha1

                def audit(mux, log, tenant):
                    snap = mux.export_tenant(tenant)
                    log.info(sha1(snap))
            """,
        }) == []


class TestOneTaintRunPerVocabulary:
    def test_rules_share_one_run_per_vocabulary(self, tmp_path, monkeypatch):
        built = []
        construct = TaintAnalysis.__init__

        def counting(self, project, config):
            built.append(config)
            construct(self, project, config)

        monkeypatch.setattr(TaintAnalysis, "__init__", counting)
        project = make_project(tmp_path, {
            "src/repro/sim/leaks.py": """
                def load(ctx):
                    return ctx.tpm.unseal(ctx.blob)

                def report(ctx, log):
                    log.info(load(ctx))
                    log.info(ctx.tpm.unseal(ctx.blob))
            """,
        })
        findings = run_rules(project, [
            SecretToSinkRule(), InterproceduralSecretFlowRule(),
            TenantBoundAccessRule(), TenantSnapshotLeakRule(),
        ])
        assert rules_of(findings) == ["SEC002", "SEC001"]
        assert len(built) == 3
        assert set(built) == {SECRET_TAINT, SNAPSHOT_TAINT, UNTENANTED_TAINT}


def race001(tmp_path, files):
    return run_rules(make_project(tmp_path, files),
                     [SchedulerSharedStateRule()])


class TestRACE001:
    def test_two_bodies_writing_module_state_flagged(self, tmp_path):
        findings = race001(tmp_path, {
            "src/repro/sim/workers.py": """
                STATE = {}

                def producer(box):
                    STATE["p"] = 1
                    yield 1

                def consumer(box):
                    STATE.update(c=1)
                    yield 2

                def main(sched, box):
                    sched.spawn(producer(box))
                    sched.spawn(consumer(box))
            """,
        })
        assert rules_of(findings) == ["RACE001", "RACE001"]
        assert "STATE" in findings[0].message
        assert "Mailbox" in findings[0].message

    def test_body_spawned_in_loop_flagged(self, tmp_path):
        findings = race001(tmp_path, {
            "src/repro/sim/fleet.py": """
                REGISTRY = {}

                def worker(n):
                    REGISTRY[n] = 1
                    yield n

                def main(sched):
                    for n in range(3):
                        sched.spawn(worker(n))
            """,
        })
        assert rules_of(findings) == ["RACE001"]
        assert "spawned in a loop" in findings[0].message

    def test_write_in_reachable_helper_flagged(self, tmp_path):
        # The write sits two calls below the process body; the rule
        # walks the reachable closure.
        findings = race001(tmp_path, {
            "src/repro/sim/deep.py": """
                TOTALS = {}

                def account(n):
                    TOTALS[n] = 1

                def step(n):
                    account(n)

                def worker(n):
                    step(n)
                    yield n

                def main(sched):
                    for n in range(2):
                        sched.spawn(worker(n))
            """,
        })
        assert rules_of(findings) == ["RACE001"]

    def test_mailbox_mediation_is_clean(self, tmp_path):
        assert race001(tmp_path, {
            "src/repro/sim/boxed.py": """
                def producer(box):
                    box.put(1)
                    yield 1

                def consumer(box):
                    box.put(2)
                    yield 2

                def main(sched, box):
                    sched.spawn(producer(box))
                    sched.spawn(consumer(box))
            """,
        }) == []

    def test_exclusive_if_arms_are_clean(self, tmp_path):
        # The two bodies are spawned in opposite arms of one ``if`` —
        # they never share a schedule.
        assert race001(tmp_path, {
            "src/repro/sim/modes.py": """
                STATE = {}

                def scheduled(box):
                    STATE["s"] = 1
                    yield 1

                def inline(box):
                    STATE["i"] = 1
                    yield 2

                def main(sched, box, mode):
                    if mode == "scheduled":
                        sched.spawn(scheduled(box))
                    else:
                        sched.spawn(inline(box))
            """,
        }) == []

    def test_shared_attribute_of_spawning_class_flagged(self, tmp_path):
        findings = race001(tmp_path, {
            "src/repro/sim/service.py": """
                class Service:
                    def worker(self):
                        self.jobs.append(1)
                        yield 1

                    def run(self, sched):
                        for _ in range(2):
                            sched.spawn(self.worker())
            """,
        })
        assert rules_of(findings) == ["RACE001"]
        assert "shared attribute" in findings[0].message

    def test_constructor_writes_are_clean(self, tmp_path):
        # __init__ writes to an object no other process holds yet.
        assert race001(tmp_path, {
            "src/repro/sim/ctor.py": """
                class Worker:
                    def __init__(self):
                        self.jobs = []

                    def body(self):
                        yield 1

                def main(sched, w):
                    for _ in range(2):
                        sched.spawn(w.body())
            """,
        }) == []

    def test_non_generator_argument_is_not_a_body(self, tmp_path):
        # Process(make_config(...)) — the argument is a plain function.
        assert race001(tmp_path, {
            "src/repro/sim/plain.py": """
                STATE = {}

                def make_config(n):
                    STATE[n] = 1
                    return {"n": n}

                def main(sched):
                    for n in range(2):
                        sched.spawn(make_config(n))
            """,
        }) == []

    def test_find_spawned_bodies_reports_contexts(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/sim/two.py": """
                def a(box):
                    yield 1

                def main(sched, box):
                    sched.spawn(a(box))
                    for _ in range(2):
                        sched.spawn(a(box))
            """,
        })
        bodies = find_spawned_bodies(project)
        assert [b.qualname for b in bodies] == ["repro.sim.two.a"]
        assert bodies[0].multi_instance
