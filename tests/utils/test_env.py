"""Tests for the shared environment-variable parsing helpers.

The original bug these pin down: ``REPRO_NO_NATIVE_KERNEL=0`` used to
*disable* the native kernel, because the check was ``var in os.environ``
rather than a parse of the value.  Every boolean ``REPRO_*`` knob now goes
through :func:`repro.utils.env.parse_flag`, so ``0``/``""``/``false``/``no``
mean *unset*.
"""

import logging

import pytest

from repro.utils.env import env_flag, env_int, env_str, parse_flag


class TestParseFlag:
    @pytest.mark.parametrize("raw", ["", "0", "false", "no", "off",
                                     "False", "NO", "Off", " 0 ", "  "])
    def test_falsy_spellings_are_false(self, raw):
        assert parse_flag(raw) is False
        # Falsy beats any default: an explicit "0" means off.
        assert parse_flag(raw, default=True) is False

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on",
                                     "True", "YES", "On", " 1 "])
    def test_truthy_spellings_are_true(self, raw):
        assert parse_flag(raw) is True
        assert parse_flag(raw, default=False) is True

    def test_unset_takes_the_default(self):
        assert parse_flag(None) is False
        assert parse_flag(None, default=True) is True

    def test_unrecognised_nonempty_means_true(self, caplog):
        # Backwards compatible with the old "any value = set" behaviour,
        # but now it leaves a trace for debugging.
        with caplog.at_level(logging.DEBUG, logger="repro.utils.env"):
            assert parse_flag("banana", name="REPRO_TEST_FLAG") is True
        assert any(
            "REPRO_TEST_FLAG" in record.getMessage() for record in caplog.records
        )


class TestEnvFlag:
    def test_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "1")
        assert env_flag("REPRO_TEST_KNOB") is True
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        assert env_flag("REPRO_TEST_KNOB") is False
        monkeypatch.delenv("REPRO_TEST_KNOB")
        assert env_flag("REPRO_TEST_KNOB") is False
        assert env_flag("REPRO_TEST_KNOB", default=True) is True


class TestEnvInt:
    def test_parses_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "42")
        assert env_int("REPRO_TEST_INT") == 42
        monkeypatch.setenv("REPRO_TEST_INT", "  7 ")
        assert env_int("REPRO_TEST_INT") == 7
        monkeypatch.setenv("REPRO_TEST_INT", "")
        assert env_int("REPRO_TEST_INT", default=5) == 5
        monkeypatch.delenv("REPRO_TEST_INT")
        assert env_int("REPRO_TEST_INT") is None
        assert env_int("REPRO_TEST_INT", default=9) == 9

    def test_garbage_raises_with_the_variable_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "many")
        with pytest.raises(ValueError, match="REPRO_TEST_INT"):
            env_int("REPRO_TEST_INT")


class TestEnvStr:
    def test_empty_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_STR", "hello")
        assert env_str("REPRO_TEST_STR") == "hello"
        monkeypatch.setenv("REPRO_TEST_STR", "")
        assert env_str("REPRO_TEST_STR", default="fallback") == "fallback"
        monkeypatch.delenv("REPRO_TEST_STR")
        assert env_str("REPRO_TEST_STR") is None


class TestKernelKnob:
    """REPRO_NO_NATIVE_KERNEL honours boolean spellings (the original bug)."""

    @pytest.fixture(autouse=True)
    def _fresh_kernel_cache(self):
        from repro.diffusion.kernels import reset_kernel_cache

        reset_kernel_cache()
        yield
        reset_kernel_cache()

    @pytest.mark.parametrize("raw", ["0", "", "false", "no", "off"])
    def test_falsy_value_does_not_disable(self, monkeypatch, raw):
        from repro.diffusion.kernels import DISABLE_ENV, native_disabled

        monkeypatch.setenv(DISABLE_ENV, raw)
        assert native_disabled() is False

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on"])
    def test_truthy_value_disables(self, monkeypatch, raw):
        from repro.diffusion.kernels import DISABLE_ENV, native_disabled

        monkeypatch.setenv(DISABLE_ENV, raw)
        assert native_disabled() is True

    def test_zero_still_loads_the_native_kernel(self, monkeypatch):
        """The acceptance case: =0 must run the native kernel, not disable it."""
        from repro.diffusion.kernels import DISABLE_ENV, load_kernel

        monkeypatch.setenv(DISABLE_ENV, "0")
        kernel = load_kernel()
        if kernel is None:
            pytest.skip("no native backend available in this environment")
        assert kernel.backend == "cc"

    def test_one_disables_the_native_kernel(self, monkeypatch):
        from repro.diffusion.kernels import DISABLE_ENV, load_kernel

        monkeypatch.setenv(DISABLE_ENV, "1")
        assert load_kernel() is None
