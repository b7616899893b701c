"""The prompt assets: a system text per prompt, and the user templates beside them."""

from pathlib import Path

import pytest

from noveltycheck import prompts
from noveltycheck.prompts import TEMPERATURES, assets, load_prompt, user_text

PROMPTS_DIR = Path(prompts.__file__).parent


def test_every_asset_belongs_to_a_prompt_and_every_prompt_has_its_system_text():
    on_disk = sorted(p.name for p in PROMPTS_DIR.glob("*.txt"))
    allowed = {f"{name}{suffix}" for name in TEMPERATURES for suffix in (".txt", ".user.txt")}
    assert set(on_disk) <= allowed, sorted(set(on_disk) - allowed)
    assert {f"{name}.txt" for name in TEMPERATURES} <= set(on_disk)
    assert sorted(assets()) == on_disk


@pytest.mark.parametrize("read", [load_prompt, user_text], ids=["system", "user"])
def test_a_name_outside_the_temperature_table_is_refused(read):
    with pytest.raises(KeyError, match="unknown prompt asset"):
        read("claim_comparison.user")

