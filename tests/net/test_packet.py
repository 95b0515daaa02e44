"""Unit tests for the packet and header model."""

import pytest

from repro.net.addresses import BROADCAST, is_broadcast, validate_address
from repro.net.headers import (
    AodvHeader,
    DsdvHeader,
    EblHeader,
    IpHeader,
    MacHeader,
    TcpHeader,
    UdpHeader,
)
from repro.net.packet import Packet, PacketType


def make_packet(**kwargs):
    defaults = dict(
        ptype=PacketType.TCP,
        size=1040,
        ip=IpHeader(src=0, dst=1, sport=5, dport=6),
    )
    defaults.update(kwargs)
    return Packet(**defaults)


# -- addresses -----------------------------------------------------------------


def test_broadcast_detection():
    assert is_broadcast(BROADCAST)
    assert not is_broadcast(0)


def test_validate_address_accepts_unicast_and_broadcast():
    assert validate_address(3) == 3
    assert validate_address(BROADCAST) == BROADCAST


def test_validate_address_rejects_garbage():
    with pytest.raises(ValueError):
        validate_address(-5)
    with pytest.raises(TypeError):
        validate_address("3")


# -- packet basics ---------------------------------------------------------------


def test_packet_size_must_be_positive():
    with pytest.raises(ValueError):
        make_packet(size=0)


def test_packet_uid_is_unique():
    assert make_packet().uid != make_packet().uid


def test_packet_src_dst_shortcuts():
    pkt = make_packet()
    assert pkt.src == 0
    assert pkt.dst == 1


def test_packet_broadcast_flag():
    assert make_packet(ip=IpHeader(src=0, dst=BROADCAST)).is_broadcast
    assert not make_packet().is_broadcast


def test_packet_header_lookup():
    pkt = make_packet(headers={"tcp": TcpHeader(seqno=7)})
    assert pkt.header("tcp").seqno == 7
    with pytest.raises(KeyError):
        pkt.header("udp")


def test_packet_repr_is_informative():
    text = repr(make_packet())
    assert "tcp" in text and "1040B" in text


# -- copy semantics ----------------------------------------------------------------


def test_copy_is_deep_for_headers():
    pkt = make_packet(headers={"tcp": TcpHeader(seqno=1)})
    dup = pkt._clone()
    dup.header("tcp").seqno = 99
    dup.ip.ttl = 1
    dup.mac.dst = 42
    assert pkt.header("tcp").seqno == 1
    assert pkt.ip.ttl == 32
    assert pkt.mac.dst == BROADCAST


def test_copy_preserves_timestamp_and_forward_count():
    pkt = make_packet(timestamp=1.5)
    pkt.num_forwards = 3
    dup = pkt._clone()
    assert dup.timestamp == 1.5
    assert dup.num_forwards == 3


# -- packet types ------------------------------------------------------------------------


def test_routing_control_classification():
    assert PacketType.AODV.is_routing_control
    assert PacketType.DSDV.is_routing_control
    assert not PacketType.TCP.is_routing_control
    assert not PacketType.MAC.is_routing_control


# -- header wire sizes ---------------------------------------------------------------------


def test_aodv_header_wire_sizes():
    assert AodvHeader(kind="rreq").wire_size == 24
    assert AodvHeader(kind="rrep").wire_size == 20
    assert AodvHeader(kind="hello").wire_size == 20


def test_aodv_rerr_grows_with_destinations():
    one = AodvHeader(kind="rerr", unreachable=[(1, 2)])
    three = AodvHeader(kind="rerr", unreachable=[(1, 2), (3, 4), (5, 6)])
    assert three.wire_size == one.wire_size + 16


def test_dsdv_header_wire_size_scales_with_entries():
    empty = DsdvHeader()
    assert empty.wire_size == DsdvHeader.WIRE_SIZE
    two = DsdvHeader(entries=[(1, 1, 2), (2, 2, 4)])
    assert two.wire_size == DsdvHeader.WIRE_SIZE + 24


def test_header_constant_sizes():
    assert IpHeader.WIRE_SIZE == 20
    assert TcpHeader.WIRE_SIZE == 20
    assert UdpHeader.WIRE_SIZE == 8
    assert MacHeader.WIRE_SIZE == 28
    assert EblHeader.WIRE_SIZE == 8


def test_clone_keeps_uid_and_draws_none():
    import repro.net.packet as packet_module

    pkt = make_packet(headers={"tcp": TcpHeader(seqno=7)}, meta={"k": 1})
    before = next(packet_module._uid_counter)
    clone = pkt._clone()
    assert next(packet_module._uid_counter) == before + 1
    assert clone is not pkt and clone.uid == pkt.uid
    clone.ip.ttl -= 1
    clone.headers["tcp"].seqno = 8
    clone.meta["k"] = 2
    assert (pkt.ip.ttl, pkt.headers["tcp"].seqno, pkt.meta) == (32, 7, {"k": 1})


def test_reset_uid_counter_restarts_at_zero(monkeypatch):
    import repro.net.packet as packet_module

    # Put the process-wide counter back as it was after the test.
    monkeypatch.setattr(packet_module, "_uid_counter", packet_module._uid_counter)
    make_packet()
    packet_module.reset_uid_counter()
    assert make_packet().uid == 0
