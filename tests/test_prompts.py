import itertools

import pytest

from duetsim.acts import DialogueAct, DialogueContext, render_act_list
from duetsim.errors import EmptyActList, EmptyUtterance, MissingPriorStep, TemplateError
from duetsim.prompts import (
    DEFAULT_GENERATOR_REQUIREMENTS,
    DEFAULT_VERIFIER_REQUIREMENTS,
    Feedback,
    NO_PRIOR_TURNS,
    PromptConfig,
    Requirement,
    RequirementSet,
    STEP_ORDER,
    _STEP_INSTRUCTIONS,
    act_to_utterance_prompt,
    enhance_utterance_prompt,
    generator_step_prompt,
    lint_all_templates,
    load_template,
    template_frame,
    verifier_prompt,
)

from conftest import act, make_turns, simple_goal

GOAL = simple_goal(info={"name": "ugly duckling"}, reqt=("phone", "food"))

CTX = DialogueContext(turns=make_turns(
    ("user", [act("inform", "restaurant", "name", "ugly duckling")],
     "I'm after a place called ugly duckling."),
    ("system", [act("inform", "restaurant", "food", "chinese")],
     "It serves chinese food."),
))


class TestRequirementSet:
    @pytest.mark.parametrize("items,message", [
        ((), "non-empty"),
        ((Requirement("G1", "a"), Requirement("G1", "b")), "unique"),
    ])
    def test_empty_or_repeated_ids_rejected(self, items, message):
        with pytest.raises(ValueError, match=message):
            RequirementSet("generator", items)

    def test_equal_sets_hash_alike(self):
        merged = DEFAULT_GENERATOR_REQUIREMENTS.merged(DEFAULT_VERIFIER_REQUIREMENTS)
        same = RequirementSet("generator", merged.items)
        assert merged == same and hash(merged) == hash(same)
        assert merged != RequirementSet("verifier", merged.items)


class TestGeneratorStep:
    def test_intent_step_sections(self):
        p = generator_step_prompt(GOAL, DialogueContext(),
                                  DEFAULT_GENERATOR_REQUIREMENTS, "intent", {})
        assert "ugly duckling" in p.user_text
        for r in DEFAULT_GENERATOR_REQUIREMENTS.items:
            assert r.text in p.user_text
        assert "FEEDBACK" not in p.user_text

    def test_missing_prior_step(self):
        with pytest.raises(MissingPriorStep):
            generator_step_prompt(GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS,
                                  "slot", {"intent": "inform"})

    def test_feedback_is_last(self):
        fb = Feedback("V3", "contradicts the stated booking day")
        p = generator_step_prompt(GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS,
                                  "value",
                                  {"intent": "inform", "domain": "restaurant",
                                   "slot": "food"},
                                  feedback=fb)
        assert p.user_text.strip().endswith(fb.text)

    def test_pure_function(self):
        args = (GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS, "intent", {})
        assert generator_step_prompt(*args) == generator_step_prompt(*args)

    def test_partial_rendered_in_order(self):
        p = generator_step_prompt(GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS,
                                  "slot",
                                  {"intent": "request", "domain": "restaurant"})
        body = p.user_text
        assert body.index("intent: request") < body.index("domain: restaurant")


class TestAblation:
    def test_omit_goal_removes_only_goal(self):
        full = generator_step_prompt(GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS,
                                     "intent", {})
        without = generator_step_prompt(GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS,
                                        "intent", {},
                                        config=PromptConfig(omit_goal=True))
        assert "GOAL:" in full.user_text and "GOAL:" not in without.user_text
        assert "CONVERSATION SO FAR:" in without.user_text
        assert "REQUIREMENTS:" in without.user_text

    def test_omit_history_removes_only_context(self):
        without = generator_step_prompt(GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS,
                                        "intent", {},
                                        config=PromptConfig(omit_history=True))
        assert "CONVERSATION SO FAR:" not in without.user_text
        assert "GOAL:" in without.user_text

    def test_render_mode_variants(self):
        as_text = generator_step_prompt(GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS,
                                        "intent", {},
                                        config=PromptConfig(render_mode="utterances"))
        as_acts = generator_step_prompt(GOAL, CTX, DEFAULT_GENERATOR_REQUIREMENTS,
                                        "intent", {},
                                        config=PromptConfig(render_mode="acts"))
        assert "I'm after a place called ugly duckling." in as_text.user_text
        assert "[['inform', 'restaurant', 'name', 'ugly duckling']]" in as_acts.user_text


class TestVerifierPrompt:
    DRAFT = [act("request", "restaurant", "phone")]

    def test_lists_every_requirement_id_once(self):
        p = verifier_prompt(GOAL, CTX, DEFAULT_VERIFIER_REQUIREMENTS, self.DRAFT)
        for r in DEFAULT_VERIFIER_REQUIREMENTS.items:
            assert p.user_text.count(f"{r.id}. ") == 1

    def test_draft_in_canonical_form(self):
        p = verifier_prompt(GOAL, CTX, DEFAULT_VERIFIER_REQUIREMENTS, self.DRAFT)
        assert "[['request', 'restaurant', 'phone', '']]" in p.user_text

    def test_empty_context_placeholder(self):
        p = verifier_prompt(GOAL, DialogueContext(),
                            DEFAULT_VERIFIER_REQUIREMENTS, self.DRAFT)
        assert NO_PRIOR_TURNS in p.user_text


class TestNLGPrompts:
    def test_worked_example_embedded(self):
        p = act_to_utterance_prompt([act("request", "restaurant", "phone")])
        assert "[['inform', 'restaurant', 'book day', 'Tuesday']]" in p.user_text
        assert "The restaurant is booked on Tuesday." in p.user_text
        assert p.user_text.strip().endswith(
            "Please translate the list into natural language.")

    def test_empty_acts(self):
        with pytest.raises(EmptyActList):
            act_to_utterance_prompt([])

    def test_enhance_sections_in_order(self):
        p = enhance_utterance_prompt("USER: hi", "I want food.")
        body = p.user_text
        assert body.index("[CONVERSATION]") < body.index("[SENTENCE]")
        assert "play the role of CUSTOMER" in body

    def test_enhance_empty_conversation(self):
        p = enhance_utterance_prompt("", "I want food.")
        assert "[SENTENCE]" in p.user_text

    def test_enhance_empty_utterance(self):
        with pytest.raises(EmptyUtterance):
            enhance_utterance_prompt("USER: hi", "")


def test_template_lint_passes():
    lint_all_templates()


# --- the builders against a one-shot str.format of the whole template ---

def reference_step_prompt(goal, context, requirements, step, partial,
                          feedback, config):
    """Every section rendered and the whole template formatted, per call."""
    history = context.render(config.render_mode) or NO_PRIOR_TURNS
    if partial:
        lines = "\n".join(f"{s}: {partial[s]}" for s in STEP_ORDER if s in partial)
        partial_section = f"CHOSEN SO FAR:\n{lines}\n\n"
    else:
        partial_section = ""
    return load_template("generator_step").format(
        goal_section="" if config.omit_goal else f"GOAL:\n{goal.description}\n\n",
        context_section=("" if config.omit_history
                         else f"CONVERSATION SO FAR:\n{history}\n\n"),
        requirements=requirements.render(),
        partial_section=partial_section,
        step_instruction=_STEP_INSTRUCTIONS[step],
        feedback_section="" if feedback is None else (
            "\nFEEDBACK on your previous draft (requirement "
            f"{feedback.requirement_id} was violated): {feedback.text}"))


def reference_verifier_prompt(goal, context, requirements, draft_acts, config):
    return load_template("verifier").format(
        goal_section="" if config.omit_goal else f"GOAL:\n{goal.description}\n\n",
        context=context.render(config.render_mode) or NO_PRIOR_TURNS,
        requirements=requirements.render(),
        draft_acts=render_act_list(list(draft_acts)))


# Model output that a second str.format pass would break or rewrite.
BRACED_HISTORY = (
    ("user", [act("inform", "restaurant", "food", "{chinese}")],
     "I want {partial_section} food, {0} and }{ braces."),
    ("system", [act("inform", "restaurant", "name", "ugly {duckling")],
     "Try {goal_section}, it is }} good {{."),
    ("user", [act("request", "restaurant", "phone")], "Its phone? {feedback_section}"),
)
BRACED_STEPS = {"intent": "inform, {request}", "domain": "restaurant}",
                "slot": "{food}", "value": "{step_instruction}"}
BRACED_FEEDBACK = Feedback("V3", "said {food} twice: {context_section}")
MERGED_REQUIREMENTS = DEFAULT_GENERATOR_REQUIREMENTS.merged(DEFAULT_VERIFIER_REQUIREMENTS)


@pytest.mark.parametrize("omit_goal,omit_history,render_mode",
                         itertools.product((False, True), (False, True),
                                           ("utterances", "acts")))
def test_builders_match_one_shot_format(omit_goal, omit_history, render_mode):
    """Byte for byte, on one context as it grows, for every step with and
    without feedback, and for two requirement sets and configs in turn, so a
    frame kept from an earlier turn or for other inputs would show."""
    config = PromptConfig(omit_goal=omit_goal, omit_history=omit_history,
                          render_mode=render_mode)
    other = PromptConfig(omit_goal=not omit_goal, render_mode=render_mode)
    context = DialogueContext()
    for turn in (*BRACED_HISTORY, None):
        for cfg, reqs, feedback in itertools.product(
                (config, other), (DEFAULT_GENERATOR_REQUIREMENTS, MERGED_REQUIREMENTS),
                (None, BRACED_FEEDBACK)):
            partial = {}
            for step in STEP_ORDER:
                built = generator_step_prompt(GOAL, context, reqs, step, dict(partial),
                                              feedback=feedback, config=cfg)
                assert built.user_text == reference_step_prompt(
                    GOAL, context, reqs, step, partial, feedback, cfg)
                partial[step] = BRACED_STEPS[step]
            draft = [act("inform", "restaurant", "food", "{x}")]
            built = verifier_prompt(GOAL, context, DEFAULT_VERIFIER_REQUIREMENTS,
                                    draft, cfg)
            assert built.user_text == reference_verifier_prompt(
                GOAL, context, DEFAULT_VERIFIER_REQUIREMENTS, draft, cfg)
        if turn is not None:
            context.append(*turn)


def test_nlg_builders_match_one_shot_format():
    acts = [act("inform", "restaurant", "food", "{acts}")]
    assert act_to_utterance_prompt(acts).user_text == \
        load_template("act_to_utterance").format(acts=render_act_list(acts))
    conversation, utterance = "USER: {utterance} }{", "I want {conversation}."
    assert enhance_utterance_prompt(conversation, utterance).user_text == \
        load_template("enhance_utterance").format(conversation=conversation,
                                                  utterance=utterance)


@pytest.mark.parametrize("body", ["{}", "{acts!r}", "{acts:>9}"])
def test_template_field_must_be_a_plain_name(monkeypatch, body):
    """Filling segments matches str.format only for plain-name fields."""
    monkeypatch.setattr("duetsim.prompts.load_template", lambda name: f"x {body} y")
    template_frame.cache_clear()
    try:
        with pytest.raises(TemplateError):
            template_frame("act_to_utterance")
    finally:
        template_frame.cache_clear()
