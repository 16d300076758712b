"""Every config field has a reader: a key that nothing reads does nothing."""

import dataclasses
import inspect
import re

import pytest

from splatscan import mapping, pipeline, rasterizer, registration


@pytest.mark.parametrize("module, config", [
    (mapping, mapping.MappingConfig),
    (registration, registration.RegistrationConfig),
    (rasterizer, rasterizer.RasterConfig),
    (pipeline, pipeline.RunConfig),
], ids=lambda x: getattr(x, "__name__", None))
def test_every_config_field_is_read_in_its_module(module, config):
    # the class body names every field, so it does not count as a reader
    source = inspect.getsource(module).replace(inspect.getsource(config), "")
    unread = [f.name for f in dataclasses.fields(config)
              if not re.search(rf"\.{f.name}\b", source)]
    assert not unread, f"{config.__name__} fields that nothing in its module reads: {unread}"
