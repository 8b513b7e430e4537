"""flicker-module protocol tests: the sysfs surface an application uses."""

import pytest

from repro.core import PAL
from repro.core.flicker_module import FlickerModule
from repro.errors import FlickerError, SLBFormatError, SysfsError


class SysfsPAL(PAL):
    name = "sysfs-driven"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"via-sysfs:" + ctx.inputs)


class TestSysfsProtocol:
    """Paper §4.2: applications drive sessions through four sysfs entries."""

    def test_entries_registered_on_load(self, platform):
        for entry in ("slb", "inputs", "outputs", "control"):
            assert platform.kernel.sysfs.exists(f"flicker/{entry}")

    def test_full_session_via_sysfs_only(self, platform):
        image = platform.build(SysfsPAL())
        sysfs = platform.kernel.sysfs
        sysfs.write("flicker/slb", image.image)
        sysfs.write("flicker/inputs", b"raw-app-data")
        sysfs.write("flicker/control", b"go")
        assert sysfs.read("flicker/outputs") == b"via-sysfs:raw-app-data"

    def test_control_with_hex_nonce(self, platform):
        image = platform.build(SysfsPAL())
        sysfs = platform.kernel.sysfs
        sysfs.write("flicker/slb", image.image)
        sysfs.write("flicker/inputs", b"")
        nonce = bytes(range(20))
        sysfs.write("flicker/control", b"go:" + nonce.hex().encode())
        assert platform.flicker.last_result is not None

    def test_unknown_slb_bytes_rejected(self, platform):
        with pytest.raises(SLBFormatError):
            platform.kernel.sysfs.write("flicker/slb", b"\x01\x02" * 100)

    def test_outputs_not_writable_inputs_not_readable(self, platform):
        with pytest.raises(SysfsError):
            platform.kernel.sysfs.write("flicker/outputs", b"x")
        with pytest.raises(SysfsError):
            platform.kernel.sysfs.read("flicker/inputs")

    def test_entries_removed_on_unload(self, platform):
        platform.kernel.unload_module(platform.flicker)
        for entry in ("slb", "inputs", "outputs", "control"):
            assert not platform.kernel.sysfs.exists(f"flicker/{entry}")

    def test_reload_restores_service(self, platform):
        platform.kernel.unload_module(platform.flicker)
        fresh = FlickerModule()
        platform.kernel.load_module(fresh)
        platform.flicker = fresh
        platform._installed = None
        result = platform.execute_pal(SysfsPAL(), inputs=b"after-reload")
        assert result.outputs == b"via-sysfs:after-reload"


class TestModuleStates:
    def test_execute_without_install_rejected(self):
        module = FlickerModule()
        with pytest.raises(FlickerError, match="no SLB"):
            module.execute()

    def test_install_requires_loaded_module(self, platform):
        unloaded = FlickerModule()
        image = platform.build(SysfsPAL())
        with pytest.raises(FlickerError, match="not loaded"):
            unloaded.install_slb(image)

    def test_bad_launch_technology_rejected(self):
        with pytest.raises(FlickerError):
            FlickerModule(launch="sgx")

    def test_txt_without_acm_rejected(self):
        with pytest.raises(FlickerError):
            FlickerModule(launch="txt")

    def test_slb_base_is_64kb_aligned(self, platform):
        platform.execute_pal(SysfsPAL())
        assert platform.flicker.slb_base % (64 * 1024) == 0

    def test_installed_image_accessor(self, platform):
        image = platform.build(SysfsPAL())
        platform.install(image)
        assert platform.flicker.installed_image is image

    def test_inputs_persist_between_sessions(self, platform):
        """Staged inputs are reused until overwritten (sysfs semantics)."""
        image = platform.build(SysfsPAL())
        sysfs = platform.kernel.sysfs
        sysfs.write("flicker/slb", image.image)
        sysfs.write("flicker/inputs", b"sticky")
        sysfs.write("flicker/control", b"go")
        sysfs.write("flicker/control", b"go")
        assert sysfs.read("flicker/outputs") == b"via-sysfs:sticky"

    def test_module_text_is_measured_kernel_state(self, platform):
        """The flicker-module appears in the kernel's module list, so the
        rootkit detector measures it like any other module."""
        names = [name for name, _, _ in platform.kernel.measured_regions()]
        assert "module:flicker_module" in names
