"""The ``Packet.copy_for_forwarding`` header-copy contract, and the
slotted ``Packet`` surface.

Headers are copied one container level deep: flat mutable containers
(dict/list/set) get their own copy per forwarding hop, everything else —
scalars, tuples, and anything nested deeper than one level — is shared.
The aliasing this rules out bit us once: a router mutating a dict header
on a forwarded copy was silently editing the copy the previous hop still
held in its retransmit queue.
"""

import pickle

import pytest

from repro.net.packet import Packet, PacketKind


def make_packet(**headers):
    return Packet(src=1, dst=9, kind=PacketKind.DATA, ttl=8,
                  path=[1], headers=headers)


class TestHeaderCopy:
    def test_flat_mutable_containers_are_copied(self):
        pkt = make_packet(seen={1}, route=[1, 2], meta={"detours": 0})
        fwd = pkt.copy_for_forwarding()
        fwd.headers["seen"].add(99)
        fwd.headers["route"].append(99)
        fwd.headers["meta"]["detours"] = 5
        assert pkt.headers["seen"] == {1}
        assert pkt.headers["route"] == [1, 2]
        assert pkt.headers["meta"] == {"detours": 0}

    def test_immutable_values_are_shared(self):
        ctx = (7, 3, 2)  # e.g. a trace-context tuple
        pkt = make_packet(trace=ctx, label="x", n=4)
        fwd = pkt.copy_for_forwarding()
        assert fwd.headers["trace"] is ctx
        assert fwd.headers == pkt.headers

    def test_nested_values_are_shared_read_only(self):
        # The documented limit of the contract: one level deep only.
        inner = [1]
        pkt = make_packet(nested={"inner": inner})
        fwd = pkt.copy_for_forwarding()
        assert fwd.headers["nested"] is not pkt.headers["nested"]
        assert fwd.headers["nested"]["inner"] is inner

    def test_path_and_ttl_per_copy(self):
        pkt = make_packet()
        fwd = pkt.copy_for_forwarding()
        fwd.path.append(2)
        assert pkt.path == [1]
        assert fwd.ttl == pkt.ttl - 1
        assert fwd.uid == pkt.uid  # same logical packet
        assert fwd.payload is pkt.payload

    def test_header_dict_itself_is_fresh(self):
        pkt = make_packet(a=1)
        fwd = pkt.copy_for_forwarding()
        fwd.headers["b"] = 2
        assert "b" not in pkt.headers


def _packet(**kw):
    defaults = dict(src=1, dst=9, payload=("m", 0), ttl=4, created_at=2.0)
    defaults.update(kw)
    return Packet(**defaults)


class TestSlottedPacket:
    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            _packet().not_a_field = 1

    def test_unhashable_like_the_old_dataclass(self):
        with pytest.raises(TypeError):
            hash(_packet())
        with pytest.raises(TypeError):
            {_packet()}

    def test_kind_codes_are_dense_and_values_wire_stable(self):
        codes = sorted(k.code for k in PacketKind)
        assert codes == list(range(len(PacketKind)))
        assert PacketKind.DATA.value == "data"
        assert PacketKind("rreq") is PacketKind.RREQ

    def test_pickle_round_trip(self):
        # Shard handoffs pickle packets across process boundaries.
        original = _packet(path=[1, 2], headers={"k": 7})
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
