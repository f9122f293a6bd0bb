"""A composed system-on-chip IP: the catalogue's largest design.

``make_soc`` stitches ten catalogue blocks into one top module — a
counter and an LFSR drive a FIR filter, a multiplier and an ALU, whose
result fans out into a FIFO-fed UART transmitter, a PWM, a shift
register and a seven-segment decoder.  It is the design the
``repro edit --demo`` loop and the ``soc_edit_loop`` benchmark edit one
module of at a time.

The golden model composes the sub-IPs' own golden models in
combinational dependency order, each with a private state slice — so
the SoC verifies constrained-random against the same reference
semantics every individual block is verified against.
"""

from __future__ import annotations

from ..hdl.hcl import ModuleBuilder
from ..sim.testbench import Testbench
from .base import Collateral, IpBlock, VerificationStatus
from .digital import (
    make_alu,
    make_counter,
    make_fifo,
    make_fir,
    make_gray_counter,
    make_lfsr,
    make_multiplier,
    make_priority_encoder,
    make_pwm,
    make_seven_seg,
    make_shift_register,
    make_uart_tx,
)


def sevenseg_recode_rtl() -> str:
    """Verilog for an active-low re-encode of the seven-segment decoder.

    The canonical one-module edit for :class:`~repro.inter.Workspace`
    demos (``repro edit --demo``) and the incremental benchmark: same
    name and ports as the catalogue ``sevenseg``, every segment pattern
    inverted.
    """
    from ..hdl.hcl import mux
    from ..hdl.verilog import to_verilog
    from .digital import _SEVEN_SEG

    b = ModuleBuilder("sevenseg")
    digit = b.input("digit", 4)
    segments = b.const(_SEVEN_SEG[0] ^ 0x7F, 7)
    for value in range(1, 16):
        segments = mux(
            digit.eq(value), b.const(_SEVEN_SEG[value] ^ 0x7F, 7), segments
        )
    b.output("segments", segments)
    return to_verilog(b.build())


def make_soc() -> IpBlock:
    """Fifteen-instance SoC: counter/LFSR → FIR/mult/ALU → FIFO/UART/…"""
    counter = make_counter(width=8)
    lfsr = make_lfsr(width=16)
    gray = make_gray_counter(width=8)
    fir = make_fir()
    fir5 = make_fir(taps=(1, 2, 3, 2, 1))
    mult = make_multiplier(width=4)
    alu = make_alu(width=8)
    fifo = make_fifo()
    uart = make_uart_tx()
    pwm = make_pwm(width=8)
    shift = make_shift_register(width=8)
    seg = make_seven_seg()
    pri = make_priority_encoder(width=8)

    b = ModuleBuilder("soc")
    en = b.input("en", 1)
    load = b.input("load", 1)
    value = b.input("value", 8)
    cnt = b.instance("u_cnt", counter.module, en=en, load=load, value=value)
    rnd = b.instance("u_rnd", lfsr.module, en=en)
    gry = b.instance("u_gray", gray.module, en=en)
    f = b.instance("u_fir", fir.module, x=rnd["q"][7:0])
    f2 = b.instance("u_fir2", fir5.module, x=cnt["q"])
    m = b.instance(
        "u_mul", mult.module, a=cnt["q"][3:0], b=rnd["q"][3:0]
    )
    m2 = b.instance(
        "u_mul2", mult.module, a=gry["gray"][3:0], b=cnt["q"][7:4]
    )
    a = b.instance(
        "u_alu", alu.module, a=m["p"], op=rnd["q"][2:0], b=f["y"][7:0]
    )
    q = b.instance("u_fifo", fifo.module, wdata=a["y"], push=en, pop=load)
    u = b.instance("u_uart", uart.module, data=q["rdata"], start=q["full"])
    p = b.instance("u_pwm", pwm.module, duty=a["y"])
    s = b.instance("u_sh", shift.module, d=a["y"])
    s2 = b.instance("u_sh2", shift.module, d=m2["p"])
    sg = b.instance("u_seg", seg.module, digit=cnt["q"][3:0])
    pe = b.instance("u_pe", pri.module, data=f2["y"][7:0])
    b.output("tx", u["txd"])
    b.output("led", p["out"])
    b.output("acc", a["y"])
    b.output("busy", u["busy"])
    b.output("dly", s["q"])
    b.output("segments", sg["segments"])
    b.output("prod", m2["p"])
    b.output("dly2", s2["q"])
    b.output("mark", pe["index"])
    b.output("hit", pe["valid"])
    module = b.build()

    models = {
        "cnt": counter.testbench.model,
        "rnd": lfsr.testbench.model,
        "gray": gray.testbench.model,
        "fir": fir.testbench.model,
        "fir2": fir5.testbench.model,
        "mul": mult.testbench.model,
        "mul2": mult.testbench.model,
        "alu": alu.testbench.model,
        "fifo": fifo.testbench.model,
        "uart": uart.testbench.model,
        "pwm": pwm.testbench.model,
        "sh": shift.testbench.model,
        "sh2": shift.testbench.model,
        "seg": seg.testbench.model,
        "pe": pri.testbench.model,
    }

    def model(inputs, state):
        # Each sub-model is called exactly once per cycle, in
        # combinational dependency order, with the pre-edge values its
        # RTL inputs carry; slices in the wiring become masks here.
        sub = state.setdefault("sub", {name: {} for name in models})
        cnt_o = models["cnt"](
            {"en": inputs["en"], "load": inputs["load"],
             "value": inputs["value"]},
            sub["cnt"],
        )
        rnd_o = models["rnd"]({"en": inputs["en"]}, sub["rnd"])
        gry_o = models["gray"]({"en": inputs["en"]}, sub["gray"])
        fir_o = models["fir"]({"x": rnd_o["q"] & 0xFF}, sub["fir"])
        fir2_o = models["fir2"]({"x": cnt_o["q"]}, sub["fir2"])
        mul_o = models["mul"](
            {"a": cnt_o["q"] & 0xF, "b": rnd_o["q"] & 0xF}, sub["mul"]
        )
        mul2_o = models["mul2"](
            {"a": gry_o["gray"] & 0xF, "b": (cnt_o["q"] >> 4) & 0xF},
            sub["mul2"],
        )
        alu_o = models["alu"](
            {"a": mul_o["p"], "b": fir_o["y"] & 0xFF,
             "op": rnd_o["q"] & 0x7},
            sub["alu"],
        )
        fifo_o = models["fifo"](
            {"wdata": alu_o["y"], "push": inputs["en"],
             "pop": inputs["load"]},
            sub["fifo"],
        )
        # rdata is undefined (stale storage) while the FIFO is empty and
        # the fifo model omits it then; the UART only samples data when
        # start (= full) is high, where rdata is always defined.
        uart_o = models["uart"](
            {"data": fifo_o.get("rdata", 0), "start": fifo_o["full"]},
            sub["uart"],
        )
        pwm_o = models["pwm"]({"duty": alu_o["y"]}, sub["pwm"])
        sh_o = models["sh"]({"d": alu_o["y"]}, sub["sh"])
        sh2_o = models["sh2"]({"d": mul2_o["p"]}, sub["sh2"])
        seg_o = models["seg"]({"digit": cnt_o["q"] & 0xF}, sub["seg"])
        pe_o = models["pe"]({"data": fir2_o["y"] & 0xFF}, sub["pe"])
        return {
            "tx": uart_o["txd"],
            "led": pwm_o["out"],
            "acc": alu_o["y"],
            "busy": uart_o["busy"],
            "dly": sh_o["q"],
            "segments": seg_o["segments"],
            "prod": mul2_o["p"],
            "dly2": sh2_o["q"],
            "mark": pe_o["index"],
            "hit": pe_o["valid"],
        }

    return IpBlock(
        name="soc",
        module=module,
        params={},
        testbench=Testbench(module, model, seed=97),
        collateral=Collateral(
            description=(
                "Fifteen-instance demonstration SoC composing the "
                "catalogue: counter, LFSR and Gray-counter stimulus into "
                "two FIR filters, two 4-bit multipliers and an 8-bit "
                "ALU, whose results feed a FIFO-buffered UART "
                "transmitter, a PWM, shift registers, a priority encoder "
                "and a seven-segment decoder."
            ),
            synthesis_hints={
                "clock_period_ps": 6000.0,
                "notes": "largest catalogue design",
            },
            integration_notes=(
                "Pure-synchronous single-clock design. `en` gates the "
                "counter/LFSR stimulus, `load`/`value` preload the "
                "counter and drain the FIFO. All outputs are observable "
                "one level below the top, which makes the SoC the "
                "reference design for Workspace edit-loop demos."
            ),
            example_instantiation=(
                "soc u0 (.clk(clk), .rst(rst), .en(1'b1), .load(1'b0), "
                ".value(8'h00), .tx(tx), .led(led), .acc(acc), "
                ".busy(busy), .dly(dly), .segments(segments));"
            ),
        ),
        verification=VerificationStatus.RANDOM,
    )
