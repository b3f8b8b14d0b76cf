import json
from importlib import resources

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from duetsim.cli import main
from duetsim.errors import (
    InvalidBookingSlot,
    ParseError,
    SchemaViolation,
    UnknownDomain,
    WorldError,
    WorldLoadError,
)
from duetsim.world import (
    BookingLedger,
    Entity,
    EntityIndex,
    describe_goal,
    generate_goal,
    load_world,
    query_entities,
)


def rename(mapping: dict, old: str, new: str) -> None:
    mapping[new] = mapping.pop(old)


def capitalize_restaurant(doc: dict) -> None:
    rename(doc["ontology"], "restaurant", "Restaurant")
    for entity in doc["entities"]:
        if entity["domain"] == "restaurant":
            entity["domain"] = "Restaurant"


def edited_bundled_world(edit) -> dict:
    doc = json.loads(resources.files("duetsim.data").joinpath("world.json").read_text())
    edit(doc)
    return doc


class TestLoadWorld:
    def test_bundled_world(self, ontology, entities):
        assert set(ontology.domains) == {"restaurant", "hotel"}
        for domain in ontology.domains:
            assert sum(1 for e in entities if e.domain == domain) >= 20

    def test_missing_requestable_slot(self, tmp_path):
        doc = {
            "ontology": {"restaurant": {
                "informable": {"food": ["thai"]},
                "requestable": ["phone"], "bookable": {}}},
            "entities": [{"domain": "restaurant", "id": "r0",
                          "attributes": {"food": "thai"}}],
        }
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation, match="phone"):
            load_world(str(path))

    def test_empty_domains(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"ontology": {}, "entities": []}))
        with pytest.raises(SchemaViolation):
            load_world(str(path))

    def test_parse_error(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_world(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorldLoadError) as e:
            load_world(str(tmp_path / "absent.json"))
        assert isinstance(e.value, WorldError)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(ParseError):
            load_world(str(path))

    @pytest.mark.parametrize("edit,location", [
        (capitalize_restaurant, "ontology.Restaurant"),
        (lambda doc: rename(doc["ontology"]["restaurant"]["informable"], "food", " food"),
         "ontology.restaurant.informable"),
        (lambda doc: doc["ontology"]["hotel"]["requestable"].append("Phone"),
         "ontology.hotel.requestable"),
        (lambda doc: doc["ontology"]["hotel"]["bookable"]["book day"].append("friday "),
         "ontology.hotel.bookable.book day"),
        (lambda doc: doc["entities"][0]["attributes"].update(food="thai "),
         "entities[0].attributes.food"),
        (lambda doc: doc["ontology"]["restaurant"]["informable"].update(food=5),
         "ontology.restaurant.informable.food"),
        (lambda doc: doc["ontology"]["restaurant"].update(informable=[]),
         "ontology.restaurant.informable"),
        (lambda doc: doc["entities"][0].update(attributes=[]), "entities[0].attributes"),
        (lambda doc: doc["ontology"]["restaurant"]["informable"].update(area="centre"),
         "ontology.restaurant.informable.area"),
        (lambda doc: doc["ontology"]["hotel"]["bookable"].update({"book day": "monday"}),
         "ontology.hotel.bookable.book day"),
        (lambda doc: doc["ontology"]["hotel"].update(requestable="phone"),
         "ontology.hotel.requestable"),
        (lambda doc: doc.update(entities={e["id"]: e for e in doc["entities"]}),
         "entities"),
        (lambda doc: doc["entities"][0].update(domain=["restaurant"]), "entities[0]"),
        (lambda doc: doc["entities"][0]["attributes"].update(food=None),
         "entities[0].attributes.food"),
        (lambda doc: doc["entities"][0]["attributes"].update(food=True),
         "entities[0].attributes.food"),
        (lambda doc: doc["entities"][0]["attributes"].update(food=["chinese"]),
         "entities[0].attributes.food"),
        (lambda doc: doc["entities"][0]["attributes"].update(food={"name": "chinese"}),
         "entities[0].attributes.food"),
        (lambda doc: doc["entities"][0].update(id=None), "entities[0].id"),
        (lambda doc: doc["entities"][0].update(id=False), "entities[0].id"),
        (lambda doc: doc["entities"][0].update(id=["r000"]), "entities[0].id"),
    ], ids=["domain_case", "slot_padded", "requestable_case", "candidate_padded",
            "entity_value_padded", "candidates_number", "informable_list",
            "attributes_list", "candidates_string", "bookable_string",
            "requestable_string", "entities_object", "entity_domain_list",
            "entity_value_null", "entity_value_bool", "entity_value_list",
            "entity_value_object", "entity_id_null", "entity_id_bool",
            "entity_id_list"])
    def test_names_and_values_must_be_normal(self, tmp_path, edit, location):
        """Acts carry world names and values as they are, so a world must
        give them in act form: names lowercase and trimmed, values trimmed.
        A section of the wrong JSON type is named too, never a traceback,
        and a string is not read as a list of its letters."""
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edited_bundled_world(edit)))
        with pytest.raises(SchemaViolation) as e:
            load_world(str(path))
        assert e.value.location == location
        result = CliRunner().invoke(main, ["goals", "--world", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {location}: ")

    def test_number_values_are_stringified(self, tmp_path):
        """A number is the one non-string an entity id or attribute value
        may be; it loads as its string."""
        def edit(doc):
            doc["entities"][0].update(id=7)
            doc["entities"][0]["attributes"].update(phone=1223176749)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edited_bundled_world(edit)))
        _, entities = load_world(str(path))
        entity = next(e for e in entities if e.id == "7")
        assert entity.get("phone") == "1223176749"

    def test_returns_index(self, entities):
        assert isinstance(entities, EntityIndex)

    def test_slots_built_once_per_domain(self, ontology):
        for name, schema in ontology.domains.items():
            slots = ontology.slots(name)
            assert isinstance(slots, frozenset) and slots is ontology.slots(name)
            assert slots == {*schema.informable, *schema.requestable, *schema.bookable}


class TestQuery:
    def test_empty_constraints_return_all(self, ontology, entities):
        out = query_entities(entities, ontology, "restaurant", {})
        assert len(out) == sum(1 for e in entities if e.domain == "restaurant")

    def test_case_study_entity(self, ontology, entities):
        out = query_entities(entities, ontology, "restaurant",
                             {"name": "Ugly Duckling"})
        assert len(out) == 1
        assert out[0].get("food") == "chinese"

    def test_no_match(self, ontology, entities):
        assert query_entities(entities, ontology, "restaurant",
                              {"food": "nonexistent-cuisine"}) == []

    def test_unknown_domain(self, ontology, entities):
        with pytest.raises(UnknownDomain, match="^unknown domain 'spaceport'$"):
            query_entities(entities, ontology, "spaceport", {})

    def test_monotone_under_constraints(self, ontology, entities):
        broad = query_entities(entities, ontology, "hotel", {"area": "north"})
        narrow = query_entities(entities, ontology, "hotel",
                                {"area": "north", "pricerange": "cheap"})
        assert set(e.id for e in narrow) <= set(e.id for e in broad)


def naive_query(entities, domain, constraints):
    """Reference semantics: scan every entity, then sort by id."""
    out = [e for e in entities if e.domain == domain
           and all(e.get(s).strip().lower() == v.strip().lower()
                   for s, v in constraints.items())]
    return sorted(out, key=lambda e: e.id)


def _cased(value):
    """A value in random case with random edge padding."""
    return st.tuples(st.sampled_from(["", " ", "  "]),
                     st.sampled_from([value, value.upper(), value.title()]),
                     st.sampled_from(["", " ", "\t"])).map("".join)


VALUES = ["thai", "north", "Cheap", "ugly duckling", ""]
SLOTS = ["food", "area", "name", "no-such-slot"]

constraint_dicts = st.dictionaries(
    st.sampled_from(SLOTS), st.sampled_from(VALUES).flatmap(_cased), max_size=3)

synthetic_entities = st.lists(st.builds(
    Entity,
    domain=st.sampled_from(["restaurant", "hotel"]),
    id=st.sampled_from(["a", "b", "c", "d"]),  # duplicate ids keep list order
    attributes=st.dictionaries(st.sampled_from(SLOTS[:3]),
                               st.sampled_from(VALUES).flatmap(_cased),
                               max_size=3),
), max_size=12)


class TestIndexedQuery:
    @given(domain=st.sampled_from(["restaurant", "hotel"]),
           constraints=constraint_dicts)
    def test_bundled_world_matches_scan(self, ontology, entities, domain,
                                        constraints):
        got = query_entities(entities, ontology, domain, constraints)
        assert got == naive_query(entities, domain, constraints)
        plain = query_entities(list(entities), ontology, domain, constraints)
        assert plain == got

    @given(entity_list=synthetic_entities,
           domain=st.sampled_from(["restaurant", "hotel"]),
           constraints=constraint_dicts)
    def test_synthetic_world_matches_scan(self, ontology, entity_list, domain,
                                          constraints):
        want = naive_query(entity_list, domain, constraints)
        assert query_entities(entity_list, ontology, domain, constraints) == want
        index = EntityIndex(entity_list)
        got = query_entities(index, ontology, domain, constraints)
        assert [id(e) for e in got] == [id(e) for e in want]

    def test_posting_lists_rows_in_order(self, entities):
        rows = entities.rows("hotel")
        want = [i for i, (_, attrs) in enumerate(rows) if attrs["area"] == "south"]
        assert want and list(entities.posting("hotel", "area", "south")) == want
        assert entities.posting("hotel", "area", "atlantis") == ()
        assert entities.posting("spaceport", "area", "south") == ()

    def test_plain_list_same_goals(self, ontology, entities):
        for seed in range(50):
            assert (generate_goal(seed, ontology, list(entities))
                    == generate_goal(seed, ontology, entities))


class TestGoals:
    def test_determinism(self, ontology, entities):
        a = generate_goal(42, ontology, entities)
        b = generate_goal(42, ontology, entities)
        assert a == b

    def test_satisfiable(self, ontology, entities):
        for seed in range(50):
            goal = generate_goal(seed, ontology, entities)
            for domain, g in goal.domains.items():
                assert query_entities(entities, ontology, domain, g.info)
                assert not set(g.info) & set(g.reqt)

    def test_domain_coverage(self, ontology, entities):
        counts = {d: 0 for d in ontology.domains}
        n = 1000
        for seed in range(n):
            for domain in generate_goal(seed, ontology, entities).domains:
                counts[domain] += 1
        for domain, c in counts.items():
            assert c >= 0.1 * n, (domain, c)

    def test_description_computed_once(self, ontology, entities, monkeypatch):
        import duetsim.world

        goal = generate_goal(3, ontology, entities)
        calls = []

        def counted(g):
            calls.append(g)
            return describe_goal(g)

        monkeypatch.setattr(duetsim.world, "describe_goal", counted)
        assert goal.description == goal.description == describe_goal(goal)
        assert calls == [goal]

    def test_case_study_goal_representable(self, ontology, entities):
        from duetsim.world import DomainGoal, UserGoal
        goal = UserGoal({"restaurant": DomainGoal(
            info={"name": "ugly duckling"}, reqt=("phone", "food"))})
        text = describe_goal(goal)
        assert "Its name is called ugly duckling" in text
        assert "phone number" in text
        assert "what food it serves" in text


class TestBooking:
    def test_reference_format(self, ontology, entities):
        ledger = BookingLedger()
        entity = query_entities(entities, ontology, "restaurant", {})[0]
        code = ledger.book(entity, {"book day": "tuesday", "book people": "4"},
                           ontology)
        assert len(code) == 8
        assert code.isalnum()

    def test_unique_codes(self, ontology, entities):
        ledger = BookingLedger()
        entity = query_entities(entities, ontology, "restaurant", {})[0]
        codes = {ledger.book(entity, {}, ontology) for _ in range(50)}
        assert len(codes) == 50

    def test_invalid_booking_slot(self, ontology, entities):
        ledger = BookingLedger()
        entity = query_entities(entities, ontology, "restaurant", {})[0]
        with pytest.raises(InvalidBookingSlot):
            ledger.book(entity, {"food": "chinese"}, ontology)
