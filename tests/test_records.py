"""The library's records are immutable values: built by keyword, compared and hashed by field."""

from pathlib import Path

import pytest

from citemetric.collective import CollectiveProfile
from citemetric.indices import IndexReport
from citemetric.ingest import ProfileDocument, ScanFailure, ScanResult
from citemetric.profile import CitationProfile, CrossingPoint
from citemetric.render import Curve, GuideLine, Marker, PlotSpec

_PROFILE = dict(author_id="a", counts=(3, 1, 0), career_years=None, r0=3, r=2, c_sigma=4, c_max=3, c_s=2.0)
_DOCUMENT = dict(author_id="a", citations=(3, 1, 0))
_CURVE = dict(label="a", ordinates=(3, 1, 0))
_MARKER = dict(kind="h", point=(1.0, 3.0), curve=0)
_GUIDE = dict(label="a:unit", slope=1.0)

# (record class, fields given by keyword, fields left to their defaults)
_RECORDS = [
    (CitationProfile, _PROFILE, {}),
    (CrossingPoint, dict(r_star=1.5, c_star=2.0), {}),
    (
        IndexReport,
        dict(
            author_id="a", r0=3, r=2, c_sigma=4, c10=4, c_max=3, c_s=2.0, h=1, g=1,
            m=None, i10=0, kh1=2.0, kh2=2.0, kh3=2.0, kh=2.0,
        ),
        {},
    ),
    (ProfileDocument, _DOCUMENT, dict(career_years=None, source=None)),
    (ScanFailure, dict(path=Path("x.json"), error="invalid JSON"), {}),
    (
        ScanResult,
        dict(documents=(ProfileDocument(**_DOCUMENT),), failures=(ScanFailure(Path("x.json"), "invalid JSON"),)),
        {},
    ),
    (
        CollectiveProfile,
        dict(member_ids=("a",), author_count=1, merged=CitationProfile(**_PROFILE), r0a=3.0, ra=2.0, ca=4.0),
        {},
    ),
    (Curve, _CURVE, dict(dashed=False)),
    (Marker, _MARKER, {}),
    (GuideLine, _GUIDE, {}),
    (
        PlotSpec,
        dict(curves=(Curve(**_CURVE),), markers=(Marker(**_MARKER),), guide_lines=(GuideLine(**_GUIDE),)),
        dict(log_y=False),
    ),
]


@pytest.mark.parametrize("cls, fields, defaults", _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS])
def test_records_are_immutable_values(cls, fields, defaults):
    record = cls(**fields)
    for name, value in {**fields, **defaults}.items():
        assert getattr(record, name) == value
    twin = cls(**fields)
    assert twin is not record
    assert twin == record
    assert hash(twin) == hash(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record).startswith(f"{cls.__name__}(")
