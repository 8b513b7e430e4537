"""Fuzz-target executors: run one case, judge it against the oracles.

Each target builds a fresh deterministic :class:`~repro.hw.machine.Machine`
(fixed seed — the *case* is the only variable), drives the surface under
test with the case's payload, and classifies the outcome:

``ok``
    The case executed and every oracle held.
``rejected``
    The case was refused with a *typed* error — expected behavior for
    hostile input; typed rejections are the TCB doing its job.
``counterexample``
    An oracle was violated: a secret leaked, tampered data unsealed,
    a forged quote verified, SKINIT succeeded on an invalid platform
    state, or an untyped exception escaped the trust boundary.

The oracles mirror the paper's guarantees: secrets never leak (§4.3),
unseal fails after tamper (§2.4), attestation rejects forgeries (§4.4.1),
and the PAL boundary only ever surfaces typed errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.crypto.sha1 import sha1
from repro.errors import (
    FaultPlanError,
    FlickerError,
    HardwareError,
    ReproError,
    TPMError,
)
from repro.fuzz.case import FuzzCase, get_bytes
from repro.hw.machine import Machine
from repro.hw.skinit import PAGE_SIZE, SLB_REGION_SIZE
from repro.tpm.driver import TPMSessionDriver
from repro.tpm.pcr import (
    DYNAMIC_PCRS,
    PCR_COUNT,
    PCR_DYNAMIC_BOOT_VALUE,
    PCR_DYNAMIC_RESET_VALUE,
    PCR_STATIC_BOOT_VALUE,
    extend_value,
)
from repro.tpm.structures import Quote, SealedBlob
from repro.tpm.tpm import command_digest

#: Deterministic machine seed — the fuzz case is the only varying input.
MACHINE_SEED = 77

#: The marker secret sealed by fuzz cases; oracles scan error text for it.
SECRET = b"fuzz-canary-secret"

_OWNER = b"fuzz-owner-auth-20b!"  # 20 bytes

#: Exceptions the trust boundary is allowed to surface.
_TYPED = (TPMError, HardwareError, FlickerError, FaultPlanError)


@dataclass(frozen=True)
class TargetResult:
    """Verdict for one executed case."""

    status: str  # "ok" | "rejected" | "counterexample"
    oracle: str  # the oracle that fired ("" when status != counterexample)
    detail: str

    def to_dict(self) -> dict:
        return {"status": self.status, "oracle": self.oracle, "detail": self.detail}


def _secret_in_text(text: str) -> bool:
    """Does error text leak the canary secret (ASCII or hex)?"""
    return SECRET.decode("ascii") in text or SECRET.hex() in text


def _untyped(exc: BaseException) -> TargetResult:
    return TargetResult(
        status="counterexample",
        oracle="typed-errors",
        detail=f"untyped {type(exc).__name__} escaped: {exc}",
    )


def _leak(where: str, text: str) -> TargetResult:
    return TargetResult(
        status="counterexample",
        oracle="no-secret-in-message",
        detail=f"secret material surfaced in {where} error text: {text[:80]}",
    )


# -- tpm: raw command streams ---------------------------------------------------


def _clamp_index(value: Any) -> int:
    return int(value) if isinstance(value, int) else 0


def _run_tpm(case: FuzzCase) -> TargetResult:
    machine = Machine(seed=MACHINE_SEED)
    machine.tpm.take_ownership(_OWNER)
    driver = TPMSessionDriver(machine.os_tpm_interface())
    interface = driver.interface

    # Shadow PCR model: what software *should* observe, maintained purely
    # in Python.  Any divergence from the TPM's answer is a coherence
    # counterexample: a read must see every software and hardware write.
    shadow: Dict[int, bytes] = {
        i: interface.pcr_read(i) for i in range(PCR_COUNT)
    }
    sealed: List[Tuple[SealedBlob, Dict[int, bytes]]] = []

    commands = case.payload.get("commands")
    if not isinstance(commands, list):
        return TargetResult("rejected", "", "payload has no command list")

    for step, cmd in enumerate(commands[:16]):
        if not isinstance(cmd, dict):
            continue
        op = cmd.get("op")
        try:
            if op == "pcr_read":
                index = _clamp_index(cmd.get("index"))
                value = driver.pcr_read(index)
                if 0 <= index < PCR_COUNT and value != shadow[index]:
                    return TargetResult(
                        "counterexample", "cache-coherent",
                        f"step {step}: PCR {index} read {value.hex()[:12]} "
                        f"!= shadow {shadow[index].hex()[:12]}",
                    )
            elif op == "pcr_extend":
                index = _clamp_index(cmd.get("index"))
                measurement = get_bytes(cmd, "data")
                driver.pcr_extend(index, measurement)
                if 0 <= index < PCR_COUNT and len(measurement) == 20:
                    shadow[index] = extend_value(shadow[index], measurement)
            elif op == "extend_hw":
                # Direct hardware write to the PCR bank (SKINIT's path),
                # bypassing the command layer: the next read must see it.
                index = _clamp_index(cmd.get("index"))
                measurement = get_bytes(cmd, "data")
                machine.tpm.pcrs.extend(index, measurement)
                if 0 <= index < PCR_COUNT and len(measurement) == 20:
                    shadow[index] = extend_value(shadow[index], measurement)
            elif op == "get_random":
                driver.get_random(_clamp_index(cmd.get("n")))
            elif op == "get_capability":
                interface.get_capability()
            elif op == "seal":
                policy = {17: shadow[17]} if cmd.get("bind") else {}
                blob = driver.seal(SECRET, policy)
                sealed.append((blob, dict(policy)))
            elif op == "unseal":
                if not sealed:
                    continue
                blob, policy = sealed[_clamp_index(cmd.get("which")) % len(sealed)]
                tamper = _clamp_index(cmd.get("tamper", -1))
                encoded = bytearray(blob.encode())
                if tamper >= 0:
                    encoded[tamper % len(encoded)] ^= (
                        _clamp_index(cmd.get("xor", 1)) % 256 or 1
                    )
                presented = SealedBlob.decode(bytes(encoded))
                policy_live = all(shadow.get(i) == v for i, v in policy.items())
                data = driver.unseal(presented)
                if tamper >= 0:
                    return TargetResult(
                        "counterexample", "unseal-rejects-tamper",
                        f"step {step}: unseal accepted a blob tampered at "
                        f"byte {tamper % len(encoded)}",
                    )
                if not policy_live:
                    return TargetResult(
                        "counterexample", "unseal-honors-policy",
                        f"step {step}: unseal released data after the bound "
                        "PCR changed",
                    )
                if data != SECRET:
                    return TargetResult(
                        "counterexample", "unseal-roundtrip",
                        f"step {step}: unseal returned wrong plaintext",
                    )
            elif op == "quote":
                nonce = sha1(get_bytes(cmd, "nonce", b"fuzz-nonce"))
                session = interface.start_oiap()
                nonce_odd = sha1(b"fuzz-quote" + bytes([step]))
                digest = command_digest("TPM_Quote", nonce, bytes((17,)))
                proof = session.compute_proof(interface.aik_auth, digest, nonce_odd)
                quote = interface.quote(nonce, (17,), session, nonce_odd, proof)
                if not quote.verify(interface.aik_public):
                    return TargetResult(
                        "counterexample", "attestation-accepts-genuine",
                        f"step {step}: genuine quote failed verification",
                    )
                forged_sig = bytes([quote.signature[0] ^ 0x01]) + quote.signature[1:]
                forged = Quote(
                    composite=quote.composite, nonce=quote.nonce,
                    signature=forged_sig, aik_public=quote.aik_public,
                )
                wrong_nonce = Quote(
                    composite=quote.composite, nonce=sha1(b"forged-nonce"),
                    signature=quote.signature, aik_public=quote.aik_public,
                )
                if forged.verify(interface.aik_public) or wrong_nonce.verify(
                    interface.aik_public
                ):
                    return TargetResult(
                        "counterexample", "attestation-rejects-forgery",
                        f"step {step}: a forged quote verified",
                    )
            elif op == "nv_define":
                driver.define_nv_space(
                    _clamp_index(cmd.get("index")),
                    _clamp_index(cmd.get("size", 8)),
                    _OWNER,
                )
            elif op == "nv_write":
                driver.nv_write(_clamp_index(cmd.get("index")), get_bytes(cmd, "data"))
            elif op == "nv_read":
                driver.nv_read(_clamp_index(cmd.get("index")))
            elif op == "counter_create":
                driver.create_counter(get_bytes(cmd, "label", b"fuzz"), _OWNER)
            elif op == "counter_increment":
                driver.increment_counter(_clamp_index(cmd.get("id")))
            elif op == "counter_read":
                driver.read_counter(_clamp_index(cmd.get("id")))
            elif op == "dynamic_reset":
                # Locality 0 must refuse this (CPU-only command) — a typed
                # TPMLocalityError is the expected, correct outcome.
                interface.dynamic_pcr_reset()
                for i in DYNAMIC_PCRS:
                    shadow[i] = PCR_DYNAMIC_RESET_VALUE
            elif op == "reboot":
                machine.tpm.reboot()
                for i in range(PCR_COUNT):
                    shadow[i] = (
                        PCR_DYNAMIC_BOOT_VALUE if i in DYNAMIC_PCRS
                        else PCR_STATIC_BOOT_VALUE
                    )
            # unknown ops are skipped: mutation may invent them freely
        except _TYPED as exc:
            if _secret_in_text(str(exc)):
                return _leak(f"tpm step {step} ({op})", str(exc))
        except ReproError as exc:
            if _secret_in_text(str(exc)):
                return _leak(f"tpm step {step} ({op})", str(exc))
        except Exception as exc:  # noqa: BLE001 - the oracle itself
            return _untyped(exc)
    return TargetResult("ok", "", f"{len(commands)} commands executed")


# -- skinit: launch preconditions ----------------------------------------------


def _marker_entry(machine, core, slb_base):
    return "pal-entered"


def _run_skinit(case: FuzzCase) -> TargetResult:
    payload = case.payload
    machine = Machine(seed=MACHINE_SEED)
    base = _clamp_index(payload.get("base", PAGE_SIZE))
    length = _clamp_index(payload.get("length", 64))
    entry = _clamp_index(payload.get("entry", 4))
    ring = _clamp_index(payload.get("ring", 0))
    core_id = _clamp_index(payload.get("core", 0)) % len(machine.cpu.cores)
    quiesce = bool(payload.get("quiesce", True))
    register = bool(payload.get("register", True))
    tamper_bit = _clamp_index(payload.get("tamper_bit", -1))
    body = get_bytes(payload, "body", b"\x90" * 60)

    image = (
        (length & 0xFFFF).to_bytes(2, "little")
        + (entry & 0xFFFF).to_bytes(2, "little")
        + body
    )

    if quiesce:
        for core in machine.cpu.cores:
            if not core.is_bsp:
                core.halted = True
                core.received_init_ipi = True
    machine.cpu.cores[core_id].ring = ring

    wrote = False
    try:
        machine.memory.write(base, image)
        wrote = True
        if tamper_bit >= 0:
            span = machine.memory.read(base, len(image))
            flipped = bytearray(span)
            flipped[(tamper_bit // 8) % len(flipped)] ^= 1 << (tamper_bit % 8)
            machine.memory.write(base, bytes(flipped))
    except HardwareError:
        pass  # out-of-range base: SKINIT itself must also fail typed
    except Exception as exc:  # noqa: BLE001
        return _untyped(exc)

    if register:
        try:
            machine.register_executable(image, _marker_entry)
        except _TYPED:
            register = False
        except Exception as exc:  # noqa: BLE001
            return _untyped(exc)

    eff_length = length & 0xFFFF
    eff_entry = entry & 0xFFFF
    valid = (
        wrote
        and ring == 0
        and machine.cpu.cores[core_id].is_bsp
        and quiesce
        and base % PAGE_SIZE == 0
        and 0 <= base
        and base + SLB_REGION_SIZE <= machine.memory.size_bytes
        and 4 <= eff_length <= SLB_REGION_SIZE
        and eff_entry < eff_length
        and eff_length <= len(image)
        and register
        and tamper_bit < 0
    )

    try:
        result = machine.skinit(core_id, base)
    except _TYPED as exc:
        if valid:
            return TargetResult(
                "counterexample", "skinit-fail-closed",
                f"SKINIT refused a fully valid launch: {exc}",
            )
        return TargetResult("rejected", "", f"typed refusal: {type(exc).__name__}")
    except Exception as exc:  # noqa: BLE001
        return _untyped(exc)

    if not valid:
        return TargetResult(
            "counterexample", "skinit-fail-closed",
            "SKINIT succeeded despite an invalid precondition",
        )
    if result != "pal-entered":
        return TargetResult(
            "counterexample", "skinit-dispatch",
            f"SKINIT dispatched to the wrong routine: {result!r}",
        )

    # Measurement honesty: PCR 17 must equal extend(reset, SHA1(measured)).
    measured = machine.memory.read(base, eff_length)
    expected = extend_value(PCR_DYNAMIC_RESET_VALUE, sha1(measured))
    live = machine.tpm.pcrs.read(17)
    if live != expected:
        return TargetResult(
            "counterexample", "measurement-honesty",
            f"PCR 17 {live.hex()[:12]} != measured-code chain "
            f"{expected.hex()[:12]}",
        )

    # The DEV must block DMA into the measured region after launch.
    device = machine.attach_dma_device("fuzz-probe")
    try:
        machine.dma_read(device, base, 4)
        return TargetResult(
            "counterexample", "dev-protects-slb",
            "DMA read of the SLB region succeeded after SKINIT",
        )
    except HardwareError:
        pass
    except Exception as exc:  # noqa: BLE001
        return _untyped(exc)
    return TargetResult("ok", "", "valid launch measured and protected")


# -- seal: sealed-blob bytes and replay schedules -------------------------------


def _run_seal(case: FuzzCase) -> TargetResult:
    payload = case.payload
    machine = Machine(seed=MACHINE_SEED)
    machine.tpm.take_ownership(_OWNER)
    driver = TPMSessionDriver(machine.os_tpm_interface())

    extends = payload.get("extends") or []
    tampers = payload.get("tampers") or []
    mode = payload.get("mode", "raw")

    if mode == "versioned":
        return _run_seal_versioned(machine, payload)

    policy = {17: driver.pcr_read(17)} if payload.get("bind", True) else {}
    try:
        blob = driver.seal(SECRET, policy)
    except _TYPED as exc:
        if _secret_in_text(str(exc)):
            return _leak("seal", str(exc))
        return TargetResult("rejected", "", f"seal refused: {type(exc).__name__}")
    except Exception as exc:  # noqa: BLE001
        return _untyped(exc)

    policy_still_holds = True
    for item in extends[:4]:
        measurement = get_bytes(item if isinstance(item, dict) else {}, "data")
        try:
            driver.pcr_extend(17, measurement)
            if len(measurement) == 20 and policy:
                policy_still_holds = False
        except _TYPED:
            pass
        except Exception as exc:  # noqa: BLE001
            return _untyped(exc)

    encoded = bytearray(blob.encode())
    net: Dict[int, int] = {}
    for item in tampers[:8]:
        if not isinstance(item, dict):
            continue
        offset = _clamp_index(item.get("offset")) % len(encoded)
        mask = _clamp_index(item.get("xor", 1)) % 256
        encoded[offset] ^= mask
        net[offset] = net.get(offset, 0) ^ mask
    effective_tamper = any(mask for mask in net.values())

    try:
        presented = SealedBlob.decode(bytes(encoded))
        data = driver.unseal(presented)
    except _TYPED as exc:
        text = str(exc)
        if _secret_in_text(text):
            return _leak("unseal", text)
        if not effective_tamper and policy_still_holds:
            return TargetResult(
                "counterexample", "unseal-roundtrip",
                f"unseal of an untampered blob failed: {type(exc).__name__}",
            )
        return TargetResult("rejected", "", f"typed refusal: {type(exc).__name__}")
    except Exception as exc:  # noqa: BLE001
        return _untyped(exc)

    if effective_tamper:
        return TargetResult(
            "counterexample", "unseal-rejects-tamper",
            f"unseal accepted a blob with net tamper at offsets "
            f"{sorted(o for o, m in net.items() if m)}",
        )
    if not policy_still_holds:
        return TargetResult(
            "counterexample", "unseal-honors-policy",
            "unseal released data after PCR 17 moved",
        )
    if data != SECRET:
        return TargetResult(
            "counterexample", "unseal-roundtrip", "unseal returned wrong plaintext"
        )
    return TargetResult("ok", "", "seal/unseal round trip held")


def _run_seal_versioned(machine: Machine, payload: Dict[str, Any]) -> TargetResult:
    from repro.core.modules.tpm_utils import PALTPMInterface
    from repro.core.sealed_storage import ReplayProtectedStorage

    tpm = PALTPMInterface(machine.os_tpm_interface())
    pcr17 = tpm.pcr_read(17)
    reseals = max(1, min(5, _clamp_index(payload.get("reseals", 2))))
    present = _clamp_index(payload.get("present", 0)) % reseals

    try:
        storage = ReplayProtectedStorage.create(tpm, _OWNER)
        versions = [
            storage.seal(SECRET + bytes([i]), pcr17) for i in range(reseals)
        ]
        data = storage.unseal(versions[present])
    except _TYPED as exc:
        text = str(exc)
        if _secret_in_text(text):
            return _leak("versioned unseal", text)
        if any(ch.isdigit() for ch in text):
            return TargetResult(
                "counterexample", "no-counter-in-message",
                f"replay rejection text contains numerals: {text[:80]}",
            )
        if present == reseals - 1:
            return TargetResult(
                "counterexample", "replay-accepts-newest",
                f"newest version was rejected: {type(exc).__name__}",
            )
        return TargetResult("rejected", "", "stale version refused")
    except Exception as exc:  # noqa: BLE001
        return _untyped(exc)

    if present != reseals - 1:
        return TargetResult(
            "counterexample", "replay-protection",
            f"stale version {present} of {reseals} unsealed successfully",
        )
    if data != SECRET + bytes([present]):
        return TargetResult(
            "counterexample", "unseal-roundtrip", "versioned unseal returned wrong data"
        )
    return TargetResult("ok", "", "replay protection held")


# -- faults: adversarial schedules over the 8 injection points ------------------


def _run_faults(case: FuzzCase) -> TargetResult:
    from repro.faults import FaultPlan, FaultSpec, run_scenario
    from repro.faults.campaign import APPS

    payload = case.payload
    app = payload.get("app", "rootkit")
    if app not in APPS:
        app = "rootkit"
    raw_specs = payload.get("specs") or []
    specs = []
    try:
        for item in raw_specs[:5]:
            if not isinstance(item, dict):
                continue
            specs.append(FaultSpec(
                kind=str(item.get("kind", "tpm-transient")),
                session=_clamp_index(item.get("session", -1)),
                op=str(item.get("op", "")),
                count=_clamp_index(item.get("count", 1)),
                magnitude=_clamp_index(item.get("magnitude", 0)),
            ))
        plan = FaultPlan(seed=_clamp_index(payload.get("seed", 0)),
                         specs=tuple(specs))
    except FaultPlanError as exc:
        return TargetResult("rejected", "", f"invalid plan: {exc}")
    except Exception as exc:  # noqa: BLE001
        return _untyped(exc)

    try:
        record = run_scenario(app, plan)
    except Exception as exc:  # noqa: BLE001
        return _untyped(exc)

    if record.get("outcome") == "secret-leaked" or record.get("leaks"):
        return TargetResult(
            "counterexample", "no-secret-leak",
            f"fault schedule leaked: outcome={record.get('outcome')} "
            f"leaks={record.get('leaks')}",
        )
    return TargetResult("ok", "", f"outcome {record.get('outcome')}")


# -- vtpm: cross-tenant command streams against the multiplexer -----------------

#: The two mutually-distrusting tenants every vtpm case runs against.
_VTPM_TENANTS = ("t0", "t1")


def _run_vtpm(case: FuzzCase) -> TargetResult:
    """Replay a mutated cross-tenant command stream against the vTPM
    multiplexer.  Oracles: no cross-tenant unseal or counter access ever
    succeeds, one tenant's ops never move another tenant's virtual PCRs,
    migration preserves tenant state exactly, and the boundary only
    surfaces typed errors that name no plaintext."""
    from repro.core.session import FlickerPlatform
    from repro.vtpm.mux import migrate_tenant

    platform = FlickerPlatform(seed=MACHINE_SEED)
    platform.machine.tpm.take_ownership(_OWNER)
    mux = platform.vtpm
    mux.create_tenant("t0", scenario="discrete")
    mux.create_tenant("t1", scenario="mobile")
    spare = None  # second platform, built on the first migrate op

    #: tenant → its current platform (migrations flip entries).
    where = {name: platform for name in _VTPM_TENANTS}
    #: Shadow virtual-PCR model per tenant (the isolation oracle).
    shadow: Dict[str, Dict[int, bytes]] = {
        name: {i: mux.tenant(name).pcrs.read(i) for i in range(PCR_COUNT)}
        for name in _VTPM_TENANTS
    }
    counters: Dict[str, Dict[int, int]] = {name: {} for name in _VTPM_TENANTS}
    #: All sealed blobs ever made: (blob, owner, policy-at-seal).
    sealed: List[Tuple[SealedBlob, str, Dict[int, bytes]]] = []
    hw_drivers: Dict[str, TPMSessionDriver] = {}
    hw_owner: Dict[int, str] = {}

    def inst(name):
        return where[name].vtpm.tenant(name)

    commands = case.payload.get("commands")
    if not isinstance(commands, list):
        return TargetResult("rejected", "", "payload has no command list")

    for step, cmd in enumerate(commands[:12]):
        if not isinstance(cmd, dict):
            continue
        op = cmd.get("op")
        name = cmd.get("tenant")
        name = name if name in _VTPM_TENANTS else "t0"
        try:
            if op == "pcr_extend":
                index = _clamp_index(cmd.get("index"))
                measurement = get_bytes(cmd, "data")
                inst(name).pcr_extend(index, measurement)
                shadow[name][index] = extend_value(
                    shadow[name][index], measurement)
            elif op == "pcr_read":
                index = _clamp_index(cmd.get("index"))
                value = inst(name).pcr_read(index)
                if 0 <= index < PCR_COUNT and value != shadow[name][index]:
                    return TargetResult(
                        "counterexample", "vtpm-pcr-isolation",
                        f"step {step}: tenant {name} PCR {index} "
                        f"{value.hex()[:12]} != shadow "
                        f"{shadow[name][index].hex()[:12]}",
                    )
            elif op == "dynamic_reset":
                inst(name).dynamic_reset()
                for i in DYNAMIC_PCRS:
                    shadow[name][i] = PCR_DYNAMIC_RESET_VALUE
            elif op == "quote":
                nonce = sha1(get_bytes(cmd, "nonce", b"vtpm-nonce"))
                vt = inst(name)
                quote = vt.quote(nonce, (17,))
                if not quote.verify(vt.aik_public):
                    return TargetResult(
                        "counterexample", "attestation-accepts-genuine",
                        f"step {step}: tenant {name}'s own quote failed",
                    )
                other = inst("t1" if name == "t0" else "t0")
                if quote.verify(other.aik_public):
                    return TargetResult(
                        "counterexample", "vtpm-key-isolation",
                        f"step {step}: tenant {name}'s quote verified "
                        "under another tenant's AIK",
                    )
            elif op == "seal":
                policy = ({17: shadow[name][17]} if cmd.get("bind") else {})
                blob = inst(name).seal(SECRET, policy)
                sealed.append((blob, name, dict(policy)))
            elif op == "unseal":
                if not sealed:
                    continue
                blob, owner, policy = sealed[
                    _clamp_index(cmd.get("which")) % len(sealed)]
                data = inst(name).unseal(blob)
                if owner != name:
                    return TargetResult(
                        "counterexample", "vtpm-namespace-isolation",
                        f"step {step}: tenant {name} unsealed tenant "
                        f"{owner}'s blob",
                    )
                if any(shadow[name].get(i) != v for i, v in policy.items()):
                    return TargetResult(
                        "counterexample", "unseal-honors-policy",
                        f"step {step}: unseal released data after the "
                        "bound virtual PCR moved",
                    )
                if data != SECRET:
                    return TargetResult(
                        "counterexample", "unseal-roundtrip",
                        f"step {step}: unseal returned wrong plaintext",
                    )
            elif op == "counter_create":
                cid = inst(name).create_counter(get_bytes(cmd, "label", b"f"))
                counters[name][cid] = 0
            elif op == "counter_increment":
                cid = _clamp_index(cmd.get("id"))
                value = inst(name).increment_counter(cid)
                expected = counters[name].get(cid, 0) + 1
                if cid in counters[name] and value != expected:
                    return TargetResult(
                        "counterexample", "vtpm-counter-state",
                        f"step {step}: tenant {name} counter {cid} is "
                        f"{value}, expected {expected}",
                    )
                counters[name][cid] = value
            elif op == "counter_read":
                cid = _clamp_index(cmd.get("id"))
                value = inst(name).read_counter(cid)
                if cid in counters[name] and value != counters[name][cid]:
                    return TargetResult(
                        "counterexample", "vtpm-counter-state",
                        f"step {step}: tenant {name} counter {cid} read "
                        f"{value}, expected {counters[name][cid]}",
                    )
            elif op == "hw_counter_create":
                if name not in hw_drivers:
                    hw_drivers[name] = TPMSessionDriver(
                        where[name].vtpm.hardware_interface(name))
                cid = hw_drivers[name].create_counter(
                    get_bytes(cmd, "label", b"f"), _OWNER)
                hw_owner[cid] = name
            elif op == "hw_counter_increment":
                if name not in hw_drivers:
                    continue
                cid = _clamp_index(cmd.get("id"))
                hw_drivers[name].increment_counter(cid)
                if cid in hw_owner and hw_owner[cid] != name:
                    return TargetResult(
                        "counterexample", "vtpm-counter-partition",
                        f"step {step}: tenant {name} incremented tenant "
                        f"{hw_owner[cid]}'s hardware counter {cid}",
                    )
            elif op == "migrate":
                if spare is None:
                    spare = FlickerPlatform(seed=MACHINE_SEED + 1)
                source = where[name]
                destination = spare if source is platform else platform
                before_pcrs = dict(shadow[name])
                before_counters = dict(counters[name])
                migrate_tenant(source, destination, name)
                where[name] = destination
                vt = inst(name)
                if any(vt.pcrs.read(i) != v for i, v in before_pcrs.items()):
                    return TargetResult(
                        "counterexample", "migration-fidelity",
                        f"step {step}: tenant {name}'s virtual PCRs "
                        "changed across migration",
                    )
                if any(vt.read_counter(c) != v
                       for c, v in before_counters.items()):
                    return TargetResult(
                        "counterexample", "migration-fidelity",
                        f"step {step}: tenant {name}'s counters changed "
                        "across migration",
                    )
            # unknown ops are skipped: mutation may invent them freely
        except _TYPED as exc:
            if _secret_in_text(str(exc)):
                return _leak(f"vtpm step {step} ({op})", str(exc))
        except ReproError as exc:
            if _secret_in_text(str(exc)):
                return _leak(f"vtpm step {step} ({op})", str(exc))
        except Exception as exc:  # noqa: BLE001 - the oracle itself
            return _untyped(exc)

    # Closing isolation sweep: both tenants' virtual banks must match
    # their shadows — no cross-tenant write ever landed.
    for name in _VTPM_TENANTS:
        vt = where[name].vtpm.tenant(name)
        for index in range(PCR_COUNT):
            if vt.pcrs.read(index) != shadow[name][index]:
                return TargetResult(
                    "counterexample", "vtpm-pcr-isolation",
                    f"final sweep: tenant {name} PCR {index} diverged "
                    "from its shadow",
                )
    return TargetResult("ok", "", f"{len(commands)} commands executed")


_RUNNERS = {
    "tpm": _run_tpm,
    "skinit": _run_skinit,
    "seal": _run_seal,
    "faults": _run_faults,
    "vtpm": _run_vtpm,
}


def run_case(case: FuzzCase) -> TargetResult:
    """Execute one case under its target's oracles."""
    return _RUNNERS[case.target](case)
